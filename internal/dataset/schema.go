// Package dataset defines the data model of the FRaC reproduction: mixed
// real/categorical feature schemas, sample matrices with missing values,
// anomaly labels, train/test replicate construction, and a TSV interchange
// format.
//
// Values are stored in a dense float64 matrix (samples x features).
// Categorical values are stored as non-negative integer labels in float64
// cells; missing values are NaN, which the NS scorer treats as "undefined:
// contribute 0" exactly as the paper's formula specifies.
package dataset

import (
	"fmt"
	"math"

	"frac/internal/binio"
)

// Kind distinguishes feature types.
type Kind uint8

const (
	// Real marks a continuous feature (learned with regression models,
	// Gaussian error models).
	Real Kind = iota
	// Categorical marks a discrete feature with a fixed arity (learned with
	// classification models, confusion-matrix error models).
	Categorical
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Real:
		return "real"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Feature describes one column of a data set.
type Feature struct {
	Name string
	Kind Kind
	// Arity is the number of categories of a Categorical feature (values
	// are labels in [0, Arity)); it is 0 for Real features.
	Arity int
}

// Schema is an ordered feature list.
type Schema []Feature

// Validate checks internal consistency.
func (s Schema) Validate() error {
	for i, f := range s {
		switch f.Kind {
		case Real:
			if f.Arity != 0 {
				return fmt.Errorf("dataset: feature %d (%s) is real but has arity %d", i, f.Name, f.Arity)
			}
		case Categorical:
			if f.Arity < 2 {
				return fmt.Errorf("dataset: feature %d (%s) is categorical but has arity %d < 2", i, f.Name, f.Arity)
			}
		default:
			return fmt.Errorf("dataset: feature %d (%s) has unknown kind %d", i, f.Name, f.Kind)
		}
	}
	return nil
}

// NumReal counts continuous features.
func (s Schema) NumReal() int {
	n := 0
	for _, f := range s {
		if f.Kind == Real {
			n++
		}
	}
	return n
}

// Select returns the sub-schema at the given feature indices.
func (s Schema) Select(indices []int) Schema {
	out := make(Schema, len(indices))
	for i, idx := range indices {
		out[i] = s[idx]
	}
	return out
}

// EncodeSchema writes s to w: its length, then each feature's name, kind
// and arity. A model artifact writes its schema with it.
func EncodeSchema(w *binio.Writer, s Schema) {
	w.Int(len(s))
	for _, f := range s {
		w.String(f.Name)
		w.U64(uint64(f.Kind))
		w.Int(f.Arity)
	}
}

// DecodeSchema reads a schema written by EncodeSchema, or returns nil when
// the stream fails (r.Err says why) or claims an implausible length. The
// schema grows as it decodes, so a corrupt count cannot allocate more
// features than the stream carries. It does not validate the schema.
func DecodeSchema(r *binio.Reader) Schema {
	n := r.Int()
	if r.Err() != nil || n < 0 || n > binio.MaxSliceLen {
		return nil
	}
	s := make(Schema, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		var f Feature
		f.Name = r.String()
		f.Kind = Kind(r.U64())
		f.Arity = r.Int()
		if r.Err() != nil {
			return nil
		}
		s = append(s, f)
	}
	return s
}

// RealSchema returns a schema of n anonymous real features, used for
// JL-projected spaces.
func RealSchema(n int) Schema {
	s := make(Schema, n)
	for i := range s {
		s[i] = Feature{Name: fmt.Sprintf("proj%d", i), Kind: Real}
	}
	return s
}

// Missing is the in-matrix encoding of an undefined value.
var Missing = math.NaN()

// IsMissing reports whether a stored value is the missing marker.
func IsMissing(v float64) bool { return math.IsNaN(v) }
