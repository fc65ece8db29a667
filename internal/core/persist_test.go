package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"frac/internal/binio"
	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
	"frac/internal/svm"
	"frac/internal/tree"
)

func roundTripModel(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("ReadModel: %v", err)
	}
	return got
}

func assertSameScores(t *testing.T, a, b *Model, test *dataset.Dataset) {
	t.Helper()
	for i := 0; i < test.NumSamples(); i++ {
		s1, s2 := a.Score(test.Sample(i)), b.Score(test.Sample(i))
		if math.Abs(s1-s2) > 1e-12 {
			t.Fatalf("sample %d: %v vs %v after round trip", i, s1, s2)
		}
	}
}

func TestPersistRealModel(t *testing.T) {
	train, test := tinyRealTrainTest()
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripModel(t, m)
	assertSameScores(t, m, got, test)
}

func TestPersistKDEErrorModel(t *testing.T) {
	train, test := tinyRealTrainTest()
	m, err := Train(train, FullTerms(2), Config{Seed: 3, KDEError: true})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripModel(t, m)
	assertSameScores(t, m, got, test)
}

func TestPersistCategoricalTreeModel(t *testing.T) {
	schema := dataset.Schema{
		{Name: "a", Kind: dataset.Categorical, Arity: 3},
		{Name: "b", Kind: dataset.Categorical, Arity: 3},
	}
	train := dataset.New("train", schema, 30)
	src := rng.New(5)
	for i := 0; i < 30; i++ {
		v := float64(src.IntN(3))
		train.Sample(i)[0] = v
		train.Sample(i)[1] = v
	}
	m, err := Train(train, FullTerms(2), Config{Seed: 3, Learners: TreeLearners(tree.Params{MinLeaf: 1})})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripModel(t, m)
	test := dataset.New("test", schema, 3)
	copy(test.Sample(0), []float64{0, 0})
	copy(test.Sample(1), []float64{2, 1})
	copy(test.Sample(2), []float64{dataset.Missing, 2})
	assertSameScores(t, m, got, test)
}

func TestPersistMixedModel(t *testing.T) {
	schema := dataset.Schema{
		{Name: "r", Kind: dataset.Real},
		{Name: "c", Kind: dataset.Categorical, Arity: 2},
	}
	train := dataset.New("train", schema, 24)
	src := rng.New(7)
	for i := 0; i < 24; i++ {
		train.Sample(i)[0] = src.Norm()
		train.Sample(i)[1] = float64(i % 2)
	}
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripModel(t, m)
	test := dataset.New("test", schema, 2)
	copy(test.Sample(0), []float64{0.5, 1})
	copy(test.Sample(1), []float64{-3, 0})
	assertSameScores(t, m, got, test)
}

func TestPersistMarginalFallback(t *testing.T) {
	train, test := tinyRealTrainTest()
	terms := []Term{{Target: 0, Orig: 0}, {Target: 1, Orig: 1}} // no inputs
	m, err := Train(train, terms, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripModel(t, m)
	assertSameScores(t, m, got, test)
}

// TestPredictorTagsPinned pins the on-disk predictor tags: a saved model
// loads only while each predictor type keeps its number. Tag 4 is the
// reserved slot of a removed classifier; a stream carrying it must fail to
// load with an error that names the tag.
func TestPredictorTagsPinned(t *testing.T) {
	x := linalg.FromRows([][]float64{{0}, {1}, {2}, {3}})
	tag := func(encode func(w *binio.Writer) error) int {
		t.Helper()
		var buf bytes.Buffer
		if err := encode(binio.NewWriter(&buf)); err != nil {
			t.Fatal(err)
		}
		return binio.NewReader(&buf).Int()
	}
	reals := []struct {
		p    RealPredictor
		want int
	}{
		{constantReal{value: 1}, 0},
		{&imputedReal{model: &svm.SVR{W: []float64{1}}, means: []float64{0}, scales: []float64{1}}, 1},
		{tree.TrainRegressor(x, realInputs(1), []float64{0, 0, 1, 1}, tree.Params{MinLeaf: 1}), 2},
	}
	for _, c := range reals {
		if got := tag(func(w *binio.Writer) error { return encodeRealPredictor(w, c.p) }); got != c.want {
			t.Errorf("%T written with tag %d, want %d", c.p, got, c.want)
		}
	}
	cats := []struct {
		p    CatPredictor
		want int
	}{
		{constantCat{label: 1}, 3},
		{tree.TrainClassifier(x, realInputs(1), []int{0, 0, 1, 1}, 2, tree.Params{MinLeaf: 1}), 5},
	}
	for _, c := range cats {
		if got := tag(func(w *binio.Writer) error { return encodeCatPredictor(w, c.p) }); got != c.want {
			t.Errorf("%T written with tag %d, want %d", c.p, got, c.want)
		}
	}

	// A one-term categorical model whose term has no inputs ends with its
	// constantCat predictor (tag, label) and the absent-drift-reference
	// flag, one 8-byte word each; rewrite the tag to 4.
	schema := dataset.Schema{{Name: "c", Kind: dataset.Categorical, Arity: 2}}
	train := dataset.New("train", schema, 8)
	for i := 0; i < 8; i++ {
		train.Sample(i)[0] = float64(i % 2)
	}
	m, err := Train(train, []Term{{Target: 0, Orig: 0}}, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	at := len(blob) - 24
	if got := binio.NewReader(bytes.NewReader(blob[at:])).Int(); got != 3 {
		t.Fatalf("word at %d is %d, want the constant categorical tag 3", at, got)
	}
	blob[at] = 4
	_, err = ReadModel(bytes.NewReader(blob))
	if err == nil || !strings.Contains(err.Error(), "tag 4") {
		t.Errorf("stream with categorical tag 4: err = %v, want one naming tag 4", err)
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(strings.NewReader("not a model at all, definitely")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadModel(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadModelRejectsTruncation(t *testing.T) {
	train, _ := tinyRealTrainTest()
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		if _, err := ReadModel(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated model (%d of %d bytes) accepted", cut, len(full))
		}
	}
}

func TestWriteToRejectsCustomPredictor(t *testing.T) {
	train, _ := tinyRealTrainTest()
	// Build a model and splice in a non-serializable predictor.
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.terms[0].real = customReal{}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err == nil {
		t.Error("custom predictor serialized without error")
	}
}

type customReal struct{}

func (customReal) Predict([]float64) float64                    { return 0 }
func (customReal) PredictBatch(x *linalg.Matrix, out []float64) {}
func (customReal) Bytes() int64                                 { return 0 }
