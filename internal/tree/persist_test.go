package tree

import (
	"bytes"
	"strings"
	"testing"

	"frac/internal/binio"
	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
)

func TestClassifierPersistRoundTrip(t *testing.T) {
	src := rng.New(1)
	n := 120
	x := newMixedMatrix(n, src)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if x.At(i, 0) > 0 || int(x.At(i, 1)) == 2 {
			y[i] = 1
		}
	}
	c := TrainClassifier(x, mixedInputSchema(), y, 2, Params{})
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	c.Encode(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeClassifier(binio.NewReader(&buf), mixedInputSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if predictLabel(c, x.Row(i)) != predictLabel(got, x.Row(i)) {
			t.Fatal("decoded classifier predicts differently")
		}
	}
	// Missing-value routing must survive the round trip.
	probe := []float64{dataset.Missing, dataset.Missing}
	if predictLabel(c, probe) != predictLabel(got, probe) {
		t.Fatal("missing routing changed")
	}
}

func TestRegressorPersistRoundTrip(t *testing.T) {
	src := rng.New(2)
	n := 100
	x := newMixedMatrix(n, src)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = 3*x.At(i, 0) + float64(int(x.At(i, 1)))
	}
	r := TrainRegressor(x, mixedInputSchema(), y, Params{})
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	r.Encode(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRegressor(binio.NewReader(&buf), mixedInputSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if predict(r, x.Row(i)) != predict(got, x.Row(i)) {
			t.Fatal("decoded regressor predicts differently")
		}
	}
	if r.NumNodes() != got.NumNodes() || r.Depth() != got.Depth() {
		t.Fatal("structure changed in round trip")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	if _, err := DecodeClassifier(binio.NewReader(strings.NewReader("junk")), mixedInputSchema(), nil); err == nil {
		t.Error("garbage accepted")
	}
	// A valid encoding, truncated.
	src := rng.New(3)
	x := newMixedMatrix(40, src)
	y := make([]int, 40)
	for i := range y {
		if x.At(i, 0) > 0 {
			y[i] = 1
		}
	}
	c := TrainClassifier(x, mixedInputSchema(), y, 2, Params{})
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	c.Encode(w)
	full := buf.Bytes()
	if _, err := DecodeClassifier(binio.NewReader(bytes.NewReader(full[:len(full)/2])), mixedInputSchema(), nil); err == nil {
		t.Error("truncated tree accepted")
	}
}

// legacyClassifier writes c, grown on rows gathered from the columns cols
// of a model over schema, as model schema version 3 and earlier wrote a
// classifier: its arity, the block of its inputs' schema entries, and its
// nodes, whose features index the inputs.
func legacyClassifier(c *Classifier, schema dataset.Schema, cols []int) []byte {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Int(c.Arity)
	dataset.EncodeSchema(w, schema.Select(cols))
	c.encode(w)
	return buf.Bytes()
}

// TestDecodeChecksInputs: a legacy tree stream decodes only against the
// model columns it was written for. Its input block must match the model's
// schema at cols in count, kind and arity, wherever in the schema those
// columns sit, and its nodes are renamed to those columns, so the decoded
// tree classifies the model's rows as the written one classified the
// gathered rows.
func TestDecodeChecksInputs(t *testing.T) {
	src := rng.New(4)
	x := newMixedMatrix(60, src)
	y := make([]int, 60)
	for i := range y {
		if x.At(i, 0) > 0 {
			y[i] = 1
		}
	}
	c := TrainClassifier(x, mixedInputSchema(), y, 2, Params{})
	// The inputs sit at columns 3 and 1 of a wider model schema.
	model := dataset.Schema{{Name: "t", Kind: dataset.Real}, mixedInputSchema()[1], {Name: "u", Kind: dataset.Real}, mixedInputSchema()[0]}
	cols := []int{3, 1}
	blob := legacyClassifier(c, model, cols)
	got, err := DecodeClassifier(binio.NewReader(bytes.NewReader(blob)), model, cols)
	if err != nil {
		t.Fatal(err)
	}
	raw := linalg.NewMatrix(x.Rows, len(model))
	for i := 0; i < x.Rows; i++ {
		raw.Set(i, 3, x.At(i, 0))
		raw.Set(i, 1, x.At(i, 1))
	}
	out := make([]int, x.Rows)
	got.PredictLabelBatch(raw, out)
	for i := range out {
		if want := predictLabel(c, x.Row(i)); out[i] != want {
			t.Fatalf("row %d: decoded tree predicts %d for the model row, the written one %d for the gathered row", i, out[i], want)
		}
	}
	for name, c := range map[string]struct {
		schema dataset.Schema
		cols   []int
	}{
		"arity":  {dataset.Schema{model[0], {Name: "c", Kind: dataset.Categorical, Arity: 4}, model[2], model[3]}, cols},
		"kind":   {dataset.Schema{model[0], model[1], model[2], {Name: "r", Kind: dataset.Categorical, Arity: 2}}, cols},
		"count":  {model, []int{3, 1, 0}},
		"column": {model, []int{1, 3}},
	} {
		if _, err := DecodeClassifier(binio.NewReader(bytes.NewReader(blob)), c.schema, c.cols); err == nil {
			t.Errorf("%s: a tree block that disagrees with the model decoded", name)
		}
	}
}

func mixedInputSchema() dataset.Schema {
	return dataset.Schema{
		{Name: "r", Kind: dataset.Real},
		{Name: "c", Kind: dataset.Categorical, Arity: 3},
	}
}

func newMixedMatrix(n int, src *rng.Source) *linalg.Matrix {
	x := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		x.Row(i)[0] = src.Norm()
		x.Row(i)[1] = float64(src.IntN(3))
	}
	return x
}

// TestDecodeChecksFeatureWidth: a current stream's node features are model
// columns, so a classifier or regressor that splits on a column at or
// above the schema's width fails to decode.
func TestDecodeChecksFeatureWidth(t *testing.T) {
	schema := mixedInputSchema()
	for feature := 0; feature <= len(schema)+1; feature++ {
		nodes := []node{
			{feature: feature, threshold: 0.5, category: -1, left: 1, right: 2},
			{feature: -1, category: -1, label: 0, value: -1},
			{feature: -1, category: -1, label: 1, value: 1},
		}
		var cb, rb bytes.Buffer
		(&Classifier{tree: tree{nodes: nodes}, Arity: 2}).Encode(binio.NewWriter(&cb))
		(&Regressor{tree: tree{nodes: nodes}}).Encode(binio.NewWriter(&rb))
		_, cErr := DecodeClassifier(binio.NewReader(&cb), schema, nil)
		_, rErr := DecodeRegressor(binio.NewReader(&rb), schema, nil)
		if bad := feature >= len(schema); (cErr != nil) != bad || (rErr != nil) != bad {
			t.Errorf("split on column %d of %d: classifier err %v, regressor err %v", feature, len(schema), cErr, rErr)
		}
	}
}
