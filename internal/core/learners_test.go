package core

import (
	"math"
	"testing"

	"frac/internal/dataset"
	"frac/internal/linalg"
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
	if math.Abs(p1.Predict(probe)-p2.Predict(probeScaled)) > 1e-6 {
		t.Errorf("scaling changed prediction: %v vs %v", p1.Predict(probe), p2.Predict(probeScaled))
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
	got := p.Predict([]float64{math.NaN(), math.NaN()})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("prediction with missing inputs = %v", got)
	}
}

func TestSVCLearnerPredictsLabels(t *testing.T) {
	learn := SVCLearner(svm.SVCParams{C: 1, MaxIter: 300})
	n := 60
	x := linalg.NewMatrix(n, 1)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x.Row(i)[0] = float64(i%3)*10 - 10
		y[i] = i % 3
	}
	p := learn(x, realInputs(1), y, 3, 1)
	for c := 0; c < 3; c++ {
		if got := p.PredictLabel([]float64{float64(c)*10 - 10}); got != c {
			t.Errorf("class %d predicted as %d", c, got)
		}
	}
	if p.Bytes() <= 0 {
		t.Error("Bytes must be positive")
	}
}

func TestTreeLearnersAdapters(t *testing.T) {
	rl := TreeRealLearner(tree.Params{})
	n := 30
	x := linalg.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Row(i)[0] = float64(i)
		if i >= 15 {
			y[i] = 10
		}
	}
	p := rl(x, realInputs(1), y, 1)
	if math.Abs(p.Predict([]float64{20})-10) > 0.5 {
		t.Errorf("regression tree adapter predicts %v", p.Predict([]float64{20}))
	}
}

func TestMarginalPredictors(t *testing.T) {
	rp := marginalRealPredictor([]float64{1, 2, 3})
	if rp.Predict([]float64{99}) != 2 {
		t.Error("marginal real should predict the mean")
	}
	cp := marginalCatPredictor([]int{0, 1, 1, 2}, 3)
	if cp.PredictLabel(nil) != 1 {
		t.Error("marginal cat should predict the majority")
	}
	if rp.Bytes() <= 0 || cp.Bytes() <= 0 {
		t.Error("constant predictors must report bytes")
	}
}

func TestPaperLearnersRouting(t *testing.T) {
	l := PaperLearners()
	if l.Real == nil || l.Cat == nil {
		t.Fatal("paper learners incomplete")
	}
	if l.Name != "svr+tree" {
		t.Errorf("name = %q", l.Name)
	}
	if l.SVR == nil {
		t.Error("paper learners must train real terms through the in-core SVR route")
	}
}
