package svm

import (
	"math"
	"testing"

	"frac/internal/linalg"
	"frac/internal/rng"
)

// linearProblem builds y = w·x + b + noise.
func linearProblem(n, d int, w []float64, b, noise float64, src *rng.Source) (*linalg.Matrix, []float64) {
	x := linalg.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = src.Norm()
		}
		y[i] = linalg.Dot(w, row) + b + src.Normal(0, noise)
	}
	return x, y
}

func TestSVRRecoversLinearFunction(t *testing.T) {
	src := rng.New(1)
	w := []float64{2, -1, 0.5}
	x, y := linearProblem(200, 3, w, 0.7, 0.05, src)
	m := TrainSVR(x, y, SVRParams{C: 10, Epsilon: 0.01, MaxIter: 500, Bias: true}, nil)
	// Held-out error should be small.
	xt, yt := linearProblem(50, 3, w, 0.7, 0.05, src)
	var mse float64
	for i := 0; i < xt.Rows; i++ {
		e := yt[i] - m.Predict(xt.Row(i))
		mse += e * e
	}
	mse /= float64(xt.Rows)
	if mse > 0.05 {
		t.Errorf("SVR test MSE = %v, want < 0.05", mse)
	}
	for j := range w {
		if math.Abs(m.W[j]-w[j]) > 0.15 {
			t.Errorf("w[%d] = %v, want ~%v", j, m.W[j], w[j])
		}
	}
	if math.Abs(m.B-0.7) > 0.15 {
		t.Errorf("bias = %v, want ~0.7", m.B)
	}
}

func TestSVRRegularizationShrinksWeights(t *testing.T) {
	src := rng.New(2)
	x, y := linearProblem(50, 5, []float64{3, 0, 0, 0, 0}, 0, 0.1, src)
	loose := TrainSVR(x, y, SVRParams{C: 10, MaxIter: 300}, nil)
	tight := TrainSVR(x, y, SVRParams{C: 0.001, MaxIter: 300}, nil)
	if linalg.Norm2(tight.W) >= linalg.Norm2(loose.W) {
		t.Errorf("stronger regularization should shrink ||w||: %v vs %v",
			linalg.Norm2(tight.W), linalg.Norm2(loose.W))
	}
}

func TestSVREdgeCases(t *testing.T) {
	// Empty training set.
	m := TrainSVR(linalg.NewMatrix(0, 3), nil, SVRParams{}, nil)
	if m.Predict([]float64{1, 2, 3}) != 0 {
		t.Error("empty-trained SVR should predict 0")
	}
	// Constant target: the bias is regularized (augmented-feature trick),
	// so a large C is needed to recover the constant exactly.
	x := linalg.NewMatrix(10, 2)
	y := make([]float64, 10)
	for i := range y {
		y[i] = 5
		x.Row(i)[0] = float64(i)
	}
	m = TrainSVR(x, y, SVRParams{C: 100, Bias: true, MaxIter: 500}, nil)
	if math.Abs(m.Predict([]float64{3, 0})-5) > 0.2 {
		t.Errorf("constant-target prediction = %v, want ~5", m.Predict([]float64{3, 0}))
	}
}

func TestSVRPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched sizes did not panic")
		}
	}()
	TrainSVR(linalg.NewMatrix(3, 2), []float64{1}, SVRParams{}, nil)
}

// TestTrainSVRWorkspaceMatchesFresh: training in a reused workspace must
// give exactly the model TrainSVR(nil) allocates fresh — weights, bias and
// stopping iteration, bit for bit — whatever shapes the workspace served
// before. Shapes shrink and grow so stale weights or duals would show.
func TestTrainSVRWorkspaceMatchesFresh(t *testing.T) {
	src := rng.New(77)
	var ws SVRWorkspace
	for _, shape := range []struct{ n, d int }{{20, 5}, {8, 2}, {16, 9}, {12, 4}, {0, 3}, {30, 7}} {
		x, y := linearProblem(shape.n, shape.d, make([]float64, shape.d), 0.3, 1, src)
		params := SVRParams{Seed: src.Uint64(), Bias: shape.d%2 == 1}
		fresh := TrainSVR(x, y, params, nil)
		reused := TrainSVR(x, y, params, &ws)
		if reused.Iters != fresh.Iters || math.Float64bits(reused.B) != math.Float64bits(fresh.B) {
			t.Fatalf("n=%d d=%d: iters=%d B=%v, fresh iters=%d B=%v",
				shape.n, shape.d, reused.Iters, reused.B, fresh.Iters, fresh.B)
		}
		if len(reused.W) != len(fresh.W) {
			t.Fatalf("n=%d d=%d: %d weights, fresh %d", shape.n, shape.d, len(reused.W), len(fresh.W))
		}
		for j := range fresh.W {
			if math.Float64bits(reused.W[j]) != math.Float64bits(fresh.W[j]) {
				t.Errorf("n=%d d=%d: W[%d] = %v, fresh %v", shape.n, shape.d, j, reused.W[j], fresh.W[j])
			}
		}
	}
}

// gramOf returns the Gram matrix of x's rows.
func gramOf(x *linalg.Matrix) *linalg.Matrix {
	k := linalg.NewMatrix(x.Rows, x.Rows)
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Rows; j++ {
			k.Row(i)[j] = linalg.Dot(x.Row(i), x.Row(j))
		}
	}
	return k
}

// TestTrainSVRGramMatchesPrimal is the Gram form's equivalence property: on
// 1,200 seeded problems with fewer rows than columns and with about as many,
// at C ∈ {0.1, 1, 10} with and without a bias, TrainSVRGram stops after
// exactly TrainSVR's epochs, and its predictions Σᵢ βᵢ(xᵢ·x) + b on the
// training rows and on fresh rows match TrainSVR's wᵀx + b to 1e-9 of the
// problem's largest prediction. Only rounding separates the two: the steps,
// their order and the stopping test are shared. One workspace serves every
// fit of both forms, so stale state would show too.
func TestTrainSVRGramMatchesPrimal(t *testing.T) {
	src := rng.New(0x6a4d)
	var ws SVRWorkspace
	worst := 0.0
	for trial := 0; trial < 1200; trial++ {
		n := 4 + src.IntN(40)
		d := n + 1 + src.IntN(3*n) // n < d
		if trial%2 == 1 {
			d = max(1, n-2+src.IntN(5)) // n ≈ d
		}
		w := make([]float64, d)
		for j := range w {
			w[j] = src.Normal(0, 1)
		}
		x, y := linearProblem(n, d, w, 0.5, 0.5, src)
		xt, _ := linearProblem(8, d, w, 0.5, 0.5, src)
		params := SVRParams{C: []float64{0.1, 1, 10}[trial%3], Bias: trial%4 < 2, Seed: src.Uint64()}
		primal := TrainSVR(x, y, params, nil)
		dual := TrainSVRGram(gramOf(x), y, params, &ws)
		if dual.Iters != primal.Iters {
			t.Fatalf("trial %d (n=%d d=%d C=%v): Gram form stopped after %d epochs, primal %d",
				trial, n, d, params.C, dual.Iters, primal.Iters)
		}
		var want, got []float64
		for _, m := range []*linalg.Matrix{x, xt} {
			for r := 0; r < m.Rows; r++ {
				want = append(want, primal.Predict(m.Row(r)))
				pred := dual.B
				for i := 0; i < n; i++ {
					pred += dual.Beta[i] * linalg.Dot(x.Row(i), m.Row(r))
				}
				got = append(got, pred)
			}
		}
		scale := 0.0
		for _, v := range want {
			scale = max(scale, math.Abs(v))
		}
		for i := range want {
			gap := math.Abs(got[i]-want[i]) / scale
			worst = max(worst, gap)
			if gap > 1e-9 {
				t.Fatalf("trial %d (n=%d d=%d C=%v): prediction %d is %v, primal %v (gap %.3g of %v)",
					trial, n, d, params.C, i, got[i], want[i], gap, scale)
			}
		}
		// Keep the workspace's primal buffers in use between Gram fits.
		TrainSVR(x, y, params, &ws)
	}
	t.Logf("worst relative prediction gap %.3g", worst)
}

func TestTrainSVRGramPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a non-square Gram matrix did not panic")
		}
	}()
	TrainSVRGram(linalg.NewMatrix(3, 2), []float64{1, 2, 3}, SVRParams{}, nil)
}
