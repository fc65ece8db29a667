// Package encode implements the preprocessing of paper Fig. 2: categorical
// k-ary features become 1-hot vectors, which are concatenated with the real
// features into a single all-real vector, ready for the JL transform.
//
// Missing values have no slot in the projected space, so the encoder imputes
// them: a missing real feature becomes its training-set mean, and a missing
// categorical feature becomes the all-zero 1-hot block (no category
// asserted). The encoder is fitted on the training set only, so test-time
// imputation leaks nothing.
package encode

import (
	"fmt"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/stats"
)

// OneHot maps mixed-schema samples to dense real vectors.
type OneHot struct {
	schema dataset.Schema
	// offsets[j] is the first output slot of input feature j.
	offsets []int
	width   int
	// means[j] is the training mean of real feature j (imputation value);
	// unused for categorical features.
	means []float64
}

// Fit constructs an encoder for the training set's schema, estimating
// imputation means from its observed values.
func Fit(train *dataset.Dataset) *OneHot {
	schema := train.Schema
	enc := &OneHot{
		schema:  schema,
		offsets: make([]int, len(schema)),
		means:   make([]float64, len(schema)),
	}
	w := 0
	for j, f := range schema {
		enc.offsets[j] = w
		if f.Kind == dataset.Categorical {
			w += f.Arity
		} else {
			w++
			obs := train.ObservedColumn(j)
			if len(obs) > 0 {
				enc.means[j] = stats.Mean(obs)
			}
		}
	}
	enc.width = w
	return enc
}

// Width reports the encoded dimensionality (schema.OneHotWidth()).
func (e *OneHot) Width() int { return e.width }

// Encode writes the encoding of sample into dst (allocated when nil or too
// short) and returns it. sample must follow the fitted schema.
func (e *OneHot) Encode(sample []float64, dst []float64) []float64 {
	if len(sample) != len(e.schema) {
		panic(fmt.Sprintf("encode: sample has %d features, schema has %d", len(sample), len(e.schema)))
	}
	if cap(dst) < e.width {
		dst = make([]float64, e.width)
	}
	dst = dst[:e.width]
	linalg.Fill(dst, 0)
	for j, v := range sample {
		off := e.offsets[j]
		if e.schema[j].Kind == dataset.Categorical {
			if dataset.IsMissing(v) {
				continue // all-zero block: no category asserted
			}
			dst[off+int(v)] = 1
		} else {
			if dataset.IsMissing(v) {
				dst[off] = e.means[j]
			} else {
				dst[off] = v
			}
		}
	}
	return dst
}

// EncodeDataset encodes every sample of d into a dense matrix.
func (e *OneHot) EncodeDataset(d *dataset.Dataset) *linalg.Matrix {
	out := linalg.NewMatrix(d.NumSamples(), e.width)
	for i := 0; i < d.NumSamples(); i++ {
		e.Encode(d.Sample(i), out.Row(i))
	}
	return out
}
