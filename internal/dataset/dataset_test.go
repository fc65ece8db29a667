package dataset

import (
	"math"
	"testing"
)

func mixedSchema() Schema {
	return Schema{
		{Name: "a", Kind: Real},
		{Name: "b", Kind: Categorical, Arity: 3},
		{Name: "c", Kind: Real},
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := mixedSchema().Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
	bad := Schema{{Name: "x", Kind: Categorical, Arity: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("arity-1 categorical accepted")
	}
	bad2 := Schema{{Name: "x", Kind: Real, Arity: 3}}
	if err := bad2.Validate(); err == nil {
		t.Error("real feature with arity accepted")
	}
}

func TestSchemaNumReal(t *testing.T) {
	if n := mixedSchema().NumReal(); n != 2 {
		t.Errorf("NumReal = %d", n)
	}
}

func TestDatasetValidateCatchesBadLabels(t *testing.T) {
	d := New("t", mixedSchema(), 1)
	d.Sample(0)[1] = 5 // out of arity range
	if err := d.Validate(); err == nil {
		t.Error("out-of-range categorical accepted")
	}
	d.Sample(0)[1] = 1.5 // non-integer
	if err := d.Validate(); err == nil {
		t.Error("non-integer categorical accepted")
	}
	d.Sample(0)[1] = Missing // missing is fine
	if err := d.Validate(); err != nil {
		t.Errorf("missing categorical rejected: %v", err)
	}
}

func TestSelectFeatures(t *testing.T) {
	d := New("t", mixedSchema(), 2)
	copy(d.Sample(0), []float64{1, 2, 3})
	copy(d.Sample(1), []float64{4, 0, 6})
	d.Anomalous = []bool{false, true}
	sub := d.SelectFeatures([]int{2, 0})
	if sub.NumFeatures() != 2 || sub.Schema[0].Name != "c" {
		t.Fatalf("SelectFeatures schema wrong: %+v", sub.Schema)
	}
	if sub.X.At(0, 0) != 3 || sub.X.At(0, 1) != 1 || sub.X.At(1, 0) != 6 {
		t.Errorf("SelectFeatures values wrong: %v", sub.X.Data)
	}
	if !sub.Anomalous[1] {
		t.Error("labels not carried over")
	}
	// Mutating the selection must not affect the original.
	sub.Sample(0)[0] = 99
	if d.X.At(0, 2) == 99 {
		t.Error("SelectFeatures shares storage")
	}
}

func TestSelectSamples(t *testing.T) {
	d := New("t", mixedSchema(), 3)
	for i := 0; i < 3; i++ {
		d.Sample(i)[0] = float64(i)
	}
	d.Anomalous = []bool{false, true, false}
	sub := d.SelectSamples([]int{2, 1})
	if sub.NumSamples() != 2 || sub.X.At(0, 0) != 2 || sub.X.At(1, 0) != 1 {
		t.Errorf("SelectSamples wrong: %v", sub.X.Data)
	}
	if !sub.Anomalous[1] {
		t.Error("label order wrong")
	}
}

func TestObservedColumnSkipsMissing(t *testing.T) {
	d := New("t", mixedSchema(), 3)
	d.Sample(0)[0] = 1
	d.Sample(1)[0] = Missing
	d.Sample(2)[0] = 3
	obs := d.ObservedColumn(0)
	if len(obs) != 2 || obs[0] != 1 || obs[1] != 3 {
		t.Errorf("ObservedColumn = %v", obs)
	}
}

func TestMissingFraction(t *testing.T) {
	d := New("t", mixedSchema(), 2)
	d.Sample(0)[0] = Missing
	if f := d.MissingFraction(); math.Abs(f-1.0/6) > 1e-12 {
		t.Errorf("MissingFraction = %v", f)
	}
}

func TestCountLabels(t *testing.T) {
	d := New("t", mixedSchema(), 3)
	d.Anomalous = []bool{true, false, true}
	n, a := d.CountLabels()
	if n != 1 || a != 2 {
		t.Errorf("CountLabels = %d, %d", n, a)
	}
	d.Anomalous = nil
	n, a = d.CountLabels()
	if n != 3 || a != 0 {
		t.Errorf("unlabeled CountLabels = %d, %d", n, a)
	}
}
