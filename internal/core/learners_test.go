package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/parallel"
	"frac/internal/rng"
	"frac/internal/svm"
	"frac/internal/tree"
)

func realInputs(d int) dataset.Schema {
	s := make(dataset.Schema, d)
	for i := range s {
		s[i] = dataset.Feature{Name: "x", Kind: dataset.Real}
	}
	return s
}

func TestImputeMatrix(t *testing.T) {
	x := linalg.FromRows([][]float64{
		{1, math.NaN()},
		{3, 4},
		{math.NaN(), 6},
	})
	means, clean := imputeMatrixInto(x, &learnerScratch{})
	if means[0] != 2 || means[1] != 5 {
		t.Errorf("means = %v", means)
	}
	if clean.At(0, 1) != 5 || clean.At(2, 0) != 2 {
		t.Errorf("imputed = %v", clean.Data)
	}
	// Original untouched.
	if !math.IsNaN(x.At(0, 1)) {
		t.Error("imputeMatrixInto mutated its input")
	}
}

func TestImputeMatrixAllMissingColumn(t *testing.T) {
	x := linalg.FromRows([][]float64{{math.NaN()}, {math.NaN()}})
	means, clean := imputeMatrixInto(x, &learnerScratch{})
	if means[0] != 0 || clean.At(0, 0) != 0 {
		t.Error("all-missing column should impute 0")
	}
}

func TestSVRLearnerScaleInvariance(t *testing.T) {
	// Standardization inside the learner makes predictions invariant to
	// input feature scaling.
	learn := SVRLearner(svm.SVRParams{C: 1, MaxIter: 300})
	n := 40
	x := linalg.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Row(i)[0] = float64(i%7) - 3
		x.Row(i)[1] = float64(i%5) - 2
		y[i] = 2*x.Row(i)[0] - x.Row(i)[1]
	}
	p1 := learn(x, realInputs(2), y, 1)

	scaled := x.Clone()
	for i := 0; i < n; i++ {
		scaled.Row(i)[0] *= 1000 // same information, different scale
	}
	p2 := learn(scaled, realInputs(2), y, 1)

	probe := []float64{2, 1}
	probeScaled := []float64{2000, 1}
	if math.Abs(predictRow(p1, probe)-predictRow(p2, probeScaled)) > 1e-6 {
		t.Errorf("scaling changed prediction: %v vs %v", predictRow(p1, probe), predictRow(p2, probeScaled))
	}
}

func TestSVRLearnerHandlesMissingAtPredictTime(t *testing.T) {
	learn := SVRLearner(svm.SVRParams{C: 1})
	n := 30
	x := linalg.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Row(i)[0] = float64(i)
		x.Row(i)[1] = float64(-i)
		y[i] = float64(i)
	}
	p := learn(x, realInputs(2), y, 1)
	got := predictRow(p, []float64{math.NaN(), math.NaN()})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("prediction with missing inputs = %v", got)
	}
}

// TestTreeLearnersAdapters: TreeLearners is Learners.Tree alone, and a
// regression tree, which it trains real targets with, fits a step.
func TestTreeLearnersAdapters(t *testing.T) {
	p := tree.Params{MinLeaf: 3}
	if l := TreeLearners(p); l.Tree == nil || *l.Tree != p || l.SVR != nil || l.Real != nil || l.Cat != nil {
		t.Errorf("TreeLearners(%+v) = %+v, want Learners.Tree alone", p, l)
	}
	n := 30
	x := linalg.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Row(i)[0] = float64(i)
		if i >= 15 {
			y[i] = 10
		}
	}
	r := tree.TrainRegressor(x, realInputs(1), y, tree.Params{})
	if math.Abs(predictRow(r, []float64{20})-10) > 0.5 {
		t.Errorf("regression tree predicts %v", predictRow(r, []float64{20}))
	}
}

func TestMarginalPredictors(t *testing.T) {
	rp := marginalRealPredictor([]float64{1, 2, 3})
	if predictRow(rp, []float64{99}) != 2 {
		t.Error("marginal real should predict the mean")
	}
	cp := marginalCatPredictor([]int{0, 1, 1, 2}, 3)
	if predictLabelRow(cp, nil) != 1 {
		t.Error("marginal cat should predict the majority")
	}
	if rp.Bytes() <= 0 || cp.Bytes() <= 0 {
		t.Error("constant predictors must report bytes")
	}
}

func TestPaperLearnersRouting(t *testing.T) {
	l := PaperLearners()
	if l.SVR == nil || l.Tree == nil {
		t.Fatal("paper learners incomplete")
	}
	if l.Real != nil {
		t.Error("paper learners must train real terms through the in-core SVR route only")
	}
	if l.Cat != nil {
		t.Error("paper learners must train categorical terms through Learners.Tree only")
	}
}

// TestSVROnlyLearnersKeepTheirParams: a Learners that sets only SVR is a
// complete configuration for all-real data, not an unset one replaced by
// PaperLearners. It must score exactly like MixedLearners with the same SVR
// hyperparameters, through Config and through JLSpec alike.
func TestSVROnlyLearnersKeepTheirParams(t *testing.T) {
	src := rng.New(17)
	train := randomRealDataset("svr-only-train", 30, 6, 0.3, 0.2, src)
	test := randomRealDataset("svr-only-test", 8, 6, 0.3, 0.2, src)
	p := svm.SVRParams{C: 0.01}
	runs := []struct {
		name string
		run  func(Learners) (*Result, error)
	}{
		{"config", func(l Learners) (*Result, error) {
			return Run(train, test, FullTerms(6), Config{Seed: 3, Learners: l})
		}},
		{"jl-spec", func(l Learners) (*Result, error) {
			return RunJL(train, test, JLSpec{Dim: 4, Learners: l}, rng.New(5), Config{Seed: 3})
		}},
	}
	for _, r := range runs {
		scores := func(l Learners) []float64 {
			t.Helper()
			res, err := r.run(l)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			return res.Scores
		}
		got, want, def := scores(Learners{SVR: &p}), scores(MixedLearners(p, tree.Params{})), scores(Learners{})
		differs := false
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s sample %d: SVR-only %v, MixedLearners %v", r.name, i, got[i], want[i])
			}
			differs = differs || want[i] != def[i]
		}
		if !differs {
			t.Fatalf("%s: C=%v scores equal the default learners'; the case cannot tell them apart", r.name, p.C)
		}
	}
}

// TestTrainRejectsMissingLearner: a term with inputs whose target kind has
// no learner is a plain error naming the feature, returned before any
// worker starts — not a nil-func panic inside one. The deprecated Real and
// Cat fields are no learner, and Tree alone is one for both kinds.
func TestTrainRejectsMissingLearner(t *testing.T) {
	allReal, _ := tinyRealTrainTest()
	mixed, _ := goldenTrainTest()
	allCat, _ := randomCatTrainTest(20, 1, 3, 0, 0, rng.New(5))
	cases := []struct {
		name     string
		train    *dataset.Dataset
		learners Learners
		feature  string
	}{
		{"svr-only, categorical target", mixed, Learners{SVR: &svm.SVRParams{}}, `"c0"`},
		{"real-only", allReal, Learners{Real: TreeRealLearner(tree.Params{})}, `"f0"`},
		{"cat-only", allCat, Learners{Cat: TreeCatLearner(tree.Params{})}, `"c"`},
	}
	for _, c := range cases {
		_, err := Train(c.train, FullTerms(c.train.NumFeatures()), Config{Seed: 1, Learners: c.learners})
		var pe *parallel.PanicError
		if err == nil || errors.As(err, &pe) || !strings.Contains(err.Error(), c.feature) {
			t.Errorf("%s: err = %v, want a plain error naming feature %s", c.name, err, c.feature)
		}
	}
	for _, train := range []*dataset.Dataset{allReal, mixed} {
		if _, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 1, Learners: Learners{Tree: &tree.Params{}}}); err != nil {
			t.Errorf("tree-only on %s: %v", train.Name, err)
		}
	}
}
