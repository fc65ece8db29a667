package svm

import (
	"math"
	"testing"

	"frac/internal/linalg"
	"frac/internal/rng"
)

// gatherCols copies x dropping column skip.
func gatherCols(x *linalg.Matrix, skip int) *linalg.Matrix {
	g := linalg.NewMatrix(x.Rows, x.Cols-1)
	for i := 0; i < x.Rows; i++ {
		k := 0
		for c, v := range x.Row(i) {
			if c != skip {
				g.Row(i)[k] = v
				k++
			}
		}
	}
	return g
}

// sameModel asserts the masked model's non-skip weights, bias, and iteration
// count equal the gathered model's bit for bit.
func sameModel(t *testing.T, label string, masked, gathered *SVR, skip int) {
	t.Helper()
	if masked.W[skip] != 0 {
		t.Errorf("%s: W[skip] = %v, want 0", label, masked.W[skip])
	}
	if masked.Iters != gathered.Iters {
		t.Errorf("%s: %d iterations, gathered %d", label, masked.Iters, gathered.Iters)
	}
	if math.Float64bits(masked.B) != math.Float64bits(gathered.B) {
		t.Errorf("%s: B = %v, gathered %v", label, masked.B, gathered.B)
	}
	k := 0
	for c := range masked.W {
		if c == skip {
			continue
		}
		if math.Float64bits(masked.W[c]) != math.Float64bits(gathered.W[k]) {
			t.Errorf("%s: W[%d] = %v (bits %016x), gathered W[%d] = %v (bits %016x)",
				label, c, masked.W[c], math.Float64bits(masked.W[c]),
				k, gathered.W[k], math.Float64bits(gathered.W[k]))
		}
		k++
	}
}

// TestTrainSVRMaskedMatchesGatheredStd: on an already-standardized matrix,
// masked training must reproduce TrainSVR on the gathered (d-1)-column
// matrix exactly — weights, bias, and stopping iteration.
func TestTrainSVRMaskedMatchesGatheredStd(t *testing.T) {
	src := rng.New(21)
	for _, shape := range []struct{ n, d int }{{8, 2}, {20, 5}, {16, 9}} {
		x := linalg.NewMatrix(shape.n, shape.d)
		y := make([]float64, shape.n)
		for i := 0; i < shape.n; i++ {
			row := x.Row(i)
			for j := range row {
				row[j] = src.Norm()
			}
			y[i] = row[0] - 0.5*row[shape.d-1] + src.Normal(0, 0.1)
		}
		params := SVRParams{Seed: src.Uint64(), Bias: true}
		var ws SVRWorkspace
		for skip := 0; skip < shape.d; skip++ {
			gathered := TrainSVR(gatherCols(x, skip), y, params)
			masked := TrainSVRMasked(MaskedView{X: x, Skip: skip}, y, params, &ws)
			sameModel(t, "std view", masked, gathered, skip)
		}
	}
}

// TestTrainSVRMaskedMatchesGatheredRaw replays the FRaC trainer's fold
// pipeline from raw data (a row subset with NaN cells): materializing the
// standardized full-width fold matrix and training masked must match
// gathering the rows, imputing, standardizing, and training; and
// PredictSkipStd on every raw holdout row must match gather, impute,
// standardize, then Predict — bit for bit.
func TestTrainSVRMaskedMatchesGatheredRaw(t *testing.T) {
	src := rng.New(33)
	n, d := 18, 6
	x := linalg.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = src.Normal(0, 2)
			if src.Bernoulli(0.15) {
				row[j] = math.NaN()
			}
		}
		y[i] = src.Norm()
	}
	rows := []int{0, 2, 3, 5, 7, 8, 10, 13, 14, 17}
	holdout := []int{1, 4, 6, 9, 11, 12, 15, 16}
	// Full-width subset statistics with the pipeline's formulas.
	means := make([]float64, d)
	scales := make([]float64, d)
	for j := 0; j < d; j++ {
		var sum float64
		count := 0
		for _, r := range rows {
			if v := x.At(r, j); !math.IsNaN(v) {
				sum += v
				count++
			}
		}
		if count > 0 {
			means[j] = sum / float64(count)
		}
		var ss float64
		for _, r := range rows {
			v := x.At(r, j)
			if math.IsNaN(v) {
				v = means[j]
			}
			dlt := v - means[j]
			ss += dlt * dlt
		}
		if sd := math.Sqrt(ss / float64(len(rows)-1)); sd > 1e-9 {
			scales[j] = 1 / sd
		}
	}
	// stdGathered imputes and standardizes a raw row, dropping column skip
	// (skip < 0 keeps every column).
	stdGathered := func(raw []float64, skip int) []float64 {
		out := make([]float64, 0, d)
		for c, v := range raw {
			if c == skip {
				continue
			}
			if math.IsNaN(v) {
				v = means[c]
			}
			out = append(out, (v-means[c])*scales[c])
		}
		return out
	}
	fold := linalg.NewMatrix(len(rows), d)
	ySub := make([]float64, len(rows))
	for i, r := range rows {
		copy(fold.Row(i), stdGathered(x.Row(r), -1))
		ySub[i] = y[r]
	}
	params := SVRParams{Seed: 99, Bias: true}
	for skip := 0; skip < d; skip++ {
		g := linalg.NewMatrix(len(rows), d-1)
		for i, r := range rows {
			copy(g.Row(i), stdGathered(x.Row(r), skip))
		}
		gathered := TrainSVR(g, ySub, params)
		masked := TrainSVRMasked(MaskedView{X: fold, Skip: skip}, ySub, params, nil)
		sameModel(t, "fold view", masked, gathered, skip)

		for _, h := range holdout {
			got := masked.PredictSkipStd(x.Row(h), means, scales, skip)
			if want := gathered.Predict(stdGathered(x.Row(h), skip)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("row %d skip %d: PredictSkipStd = %v, gathered Predict = %v", h, skip, got, want)
			}
		}
	}
}

// TestTrainSVRMaskedWorkspaceReuse: a reused workspace must not leak state
// between trainings — retraining with the same inputs yields the same model.
func TestTrainSVRMaskedWorkspaceReuse(t *testing.T) {
	src := rng.New(77)
	x := linalg.NewMatrix(12, 4)
	y := make([]float64, 12)
	for i := range y {
		row := x.Row(i)
		for j := range row {
			row[j] = src.Norm()
		}
		y[i] = row[0] + src.Normal(0, 0.2)
	}
	params := SVRParams{Seed: 5, Bias: true}
	var ws SVRWorkspace
	first := TrainSVRMasked(MaskedView{X: x, Skip: 2}, y, params, &ws)
	w := append([]float64(nil), first.W...)
	b, iters := first.B, first.Iters
	// Dirty the workspace with a different problem, then retrain the first.
	TrainSVRMasked(MaskedView{X: x, Skip: 0}, y, params, &ws)
	again := TrainSVRMasked(MaskedView{X: x, Skip: 2}, y, params, &ws)
	if again.B != b || again.Iters != iters {
		t.Fatalf("retrain: B=%v iters=%d, want B=%v iters=%d", again.B, again.Iters, b, iters)
	}
	for c := range w {
		if math.Float64bits(again.W[c]) != math.Float64bits(w[c]) {
			t.Errorf("retrain W[%d] = %v, want %v", c, again.W[c], w[c])
		}
	}
}
