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

func TestBinarySVCSeparable(t *testing.T) {
	src := rng.New(3)
	n := 100
	x := linalg.NewMatrix(n, 2)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		x.Row(i)[0] = src.Norm()
		x.Row(i)[1] = src.Norm()
		labels[i] = x.Row(i)[0]+x.Row(i)[1] > 0
	}
	m := TrainBinarySVC(x, labels, SVCParams{C: 1, MaxIter: 300, Bias: true})
	errs := 0
	for i := 0; i < n; i++ {
		if m.Predict(x.Row(i)) != labels[i] {
			errs++
		}
	}
	if errs > 3 {
		t.Errorf("%d training errors on separable data", errs)
	}
}

func TestMultiSVC(t *testing.T) {
	src := rng.New(4)
	n := 150
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	centers := [][2]float64{{-3, 0}, {3, 0}, {0, 4}}
	for i := 0; i < n; i++ {
		c := i % 3
		y[i] = c
		x.Row(i)[0] = centers[c][0] + src.Norm()*0.5
		x.Row(i)[1] = centers[c][1] + src.Norm()*0.5
	}
	m := TrainMultiSVC(x, y, 3, SVCParams{C: 1, MaxIter: 300, Bias: true})
	errs := 0
	for i := 0; i < n; i++ {
		if m.Predict(x.Row(i)) != y[i] {
			errs++
		}
	}
	if errs > 5 {
		t.Errorf("%d errors on well-separated 3-class data", errs)
	}
	if m.Bytes() <= 0 {
		t.Error("Bytes must be positive")
	}
}

func TestMultiSVCPanicsOnBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=1 did not panic")
		}
	}()
	TrainMultiSVC(linalg.NewMatrix(2, 1), []int{0, 0}, 1, SVCParams{})
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
