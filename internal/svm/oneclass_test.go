package svm

import (
	"testing"

	"frac/internal/linalg"
	"frac/internal/rng"
)

// gaussianCloud samples n points around a center.
func gaussianCloud(n, d int, center, sd float64, src *rng.Source) *linalg.Matrix {
	x := linalg.NewMatrix(n, d)
	for i := range x.Data {
		x.Data[i] = center + sd*src.Norm()
	}
	return x
}

func TestOneClassSeparatesOutliers(t *testing.T) {
	src := rng.New(11)
	train := gaussianCloud(80, 4, 0, 1, src.Stream("train"))
	m := TrainOneClass(train, OneClassParams{Nu: 0.1})

	inliers := gaussianCloud(30, 4, 0, 1, src.Stream("in"))
	outliers := gaussianCloud(30, 4, 8, 1, src.Stream("out"))
	inWrong, outWrong := 0, 0
	for i := 0; i < 30; i++ {
		if m.AnomalyScore(inliers.Row(i)) > m.AnomalyScore(outliers.Row(i)) {
			inWrong++
		}
		if m.Decision(outliers.Row(i)) >= 0 {
			outWrong++
		}
	}
	if inWrong > 1 {
		t.Errorf("%d inliers scored above paired outliers", inWrong)
	}
	if outWrong > 1 {
		t.Errorf("%d far outliers classified as inside", outWrong)
	}
}

func TestOneClassNuBoundsSupportFraction(t *testing.T) {
	src := rng.New(13)
	train := gaussianCloud(100, 3, 0, 1, src)
	// With nu=0.5 at least ~nu*n alphas are needed to sum to 1 under the
	// cap 1/(nu*n), so support vectors >= nu*n.
	m := TrainOneClass(train, OneClassParams{Nu: 0.5})
	if len(m.alphas) < 50 {
		t.Errorf("support vectors = %d, want >= nu*n = 50", len(m.alphas))
	}
}

func TestOneClassTrainingInliersMostlyInside(t *testing.T) {
	src := rng.New(17)
	train := gaussianCloud(60, 2, 0, 1, src)
	m := TrainOneClass(train, OneClassParams{Nu: 0.2})
	outside := 0
	for i := 0; i < train.Rows; i++ {
		if m.Decision(train.Row(i)) < 0 {
			outside++
		}
	}
	// nu upper-bounds the fraction of training outliers (with slack for
	// the boundary).
	if outside > 60*2/5 {
		t.Errorf("%d of 60 training points outside at nu=0.2", outside)
	}
}

func TestOneClassLinearKernel(t *testing.T) {
	src := rng.New(19)
	train := gaussianCloud(40, 3, 5, 0.5, src.Stream("t"))
	m := TrainOneClass(train, OneClassParams{Nu: 0.3, Kernel: LinearKernel{}})
	far := []float64{-20, -20, -20}
	near := []float64{5, 5, 5}
	if m.AnomalyScore(far) <= m.AnomalyScore(near) {
		t.Error("linear-kernel one-class SVM did not rank the far point as more anomalous")
	}
}

func TestGramMatrixSymmetric(t *testing.T) {
	src := rng.New(23)
	x := gaussianCloud(10, 4, 0, 1, src)
	q := GramMatrix(RBFKernel{Gamma: 0.5}, x)
	for i := 0; i < 10; i++ {
		if q.At(i, i) != 1 {
			t.Errorf("RBF diagonal = %v", q.At(i, i))
		}
		for j := 0; j < 10; j++ {
			if q.At(i, j) != q.At(j, i) {
				t.Fatal("Gram matrix not symmetric")
			}
		}
	}
}

func TestMedianGammaPositive(t *testing.T) {
	src := rng.New(29)
	x := gaussianCloud(50, 3, 0, 2, src)
	g := MedianGamma(x)
	if g <= 0 {
		t.Errorf("MedianGamma = %v", g)
	}
	// Scaling the data by 2 should shrink gamma ~4x.
	scaled := x.Clone()
	for i := range scaled.Data {
		scaled.Data[i] *= 2
	}
	g2 := MedianGamma(scaled)
	ratio := g / g2
	if ratio < 3 || ratio > 5 {
		t.Errorf("gamma scaling ratio = %v, want ~4", ratio)
	}
}
