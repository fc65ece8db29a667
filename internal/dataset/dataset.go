package dataset

import (
	"fmt"
	"math"

	"frac/internal/linalg"
)

// Dataset is a sample matrix with a schema and optional anomaly labels.
type Dataset struct {
	Name   string
	Schema Schema
	// X holds one row per sample; categorical cells hold integer labels,
	// missing cells hold NaN.
	X *linalg.Matrix
	// Anomalous marks anomaly samples; nil means unlabeled (e.g. a training
	// set of normals).
	Anomalous []bool
}

// New allocates an empty data set with n samples under the schema.
func New(name string, schema Schema, n int) *Dataset {
	return &Dataset{Name: name, Schema: schema, X: linalg.NewMatrix(n, len(schema))}
}

// NumSamples reports the number of rows.
func (d *Dataset) NumSamples() int { return d.X.Rows }

// NumFeatures reports the number of columns.
func (d *Dataset) NumFeatures() int { return len(d.Schema) }

// Sample returns row i as a mutable view.
func (d *Dataset) Sample(i int) []float64 { return d.X.Row(i) }

// ObservedColumn returns feature j's non-missing values.
func (d *Dataset) ObservedColumn(j int) []float64 {
	out := make([]float64, 0, d.NumSamples())
	for i := 0; i < d.NumSamples(); i++ {
		v := d.X.At(i, j)
		if !IsMissing(v) {
			out = append(out, v)
		}
	}
	return out
}

// Validate checks the schema and that every stored value is legal under it.
func (d *Dataset) Validate() error {
	if err := d.Schema.Validate(); err != nil {
		return err
	}
	if d.X.Cols != len(d.Schema) {
		return fmt.Errorf("dataset %q: matrix has %d cols but schema has %d features", d.Name, d.X.Cols, len(d.Schema))
	}
	if d.Anomalous != nil && len(d.Anomalous) != d.X.Rows {
		return fmt.Errorf("dataset %q: %d labels for %d samples", d.Name, len(d.Anomalous), d.X.Rows)
	}
	for j, f := range d.Schema {
		if f.Kind != Categorical {
			continue
		}
		for i := 0; i < d.X.Rows; i++ {
			v := d.X.At(i, j)
			if IsMissing(v) {
				continue
			}
			lbl := int(v)
			if float64(lbl) != v || lbl < 0 || lbl >= f.Arity {
				return fmt.Errorf("dataset %q: sample %d feature %d (%s): value %v is not a label in [0,%d)", d.Name, i, j, f.Name, v, f.Arity)
			}
		}
	}
	return nil
}

// SelectSamples returns a new data set containing the given rows (copied),
// carrying over labels when present.
func (d *Dataset) SelectSamples(rows []int) *Dataset {
	out := New(d.Name, d.Schema, len(rows))
	if d.Anomalous != nil {
		out.Anomalous = make([]bool, len(rows))
	}
	for i, r := range rows {
		copy(out.Sample(i), d.Sample(r))
		if d.Anomalous != nil {
			out.Anomalous[i] = d.Anomalous[r]
		}
	}
	return out
}

// SelectFeatures returns a new data set containing only the given feature
// columns (copied), in the given order. This is the primitive behind full
// filtering.
func (d *Dataset) SelectFeatures(cols []int) *Dataset {
	out := New(d.Name, d.Schema.Select(cols), d.NumSamples())
	if d.Anomalous != nil {
		out.Anomalous = append([]bool(nil), d.Anomalous...)
	}
	for i := 0; i < d.NumSamples(); i++ {
		src := d.Sample(i)
		dst := out.Sample(i)
		for k, c := range cols {
			dst[k] = src[c]
		}
	}
	return out
}

// CountLabels reports (normal, anomalous) sample counts; an unlabeled data
// set counts as all normal.
func (d *Dataset) CountLabels() (normal, anomalous int) {
	if d.Anomalous == nil {
		return d.NumSamples(), 0
	}
	for _, a := range d.Anomalous {
		if a {
			anomalous++
		} else {
			normal++
		}
	}
	return normal, anomalous
}

// Bytes reports the analytic memory footprint of the sample matrix.
func (d *Dataset) Bytes() int64 { return d.X.Bytes() }

// MissingFraction reports the fraction of cells that are missing.
func (d *Dataset) MissingFraction() float64 {
	total := d.X.Rows * d.X.Cols
	if total == 0 {
		return 0
	}
	miss := 0
	for _, v := range d.X.Data {
		if math.IsNaN(v) {
			miss++
		}
	}
	return float64(miss) / float64(total)
}
