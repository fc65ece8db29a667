package tree

import (
	"testing"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
)

func realSchema(d int) dataset.Schema {
	s := make(dataset.Schema, d)
	for i := range s {
		s[i] = dataset.Feature{Name: "f", Kind: dataset.Real}
	}
	return s
}

func catSchema(d, arity int) dataset.Schema {
	s := make(dataset.Schema, d)
	for i := range s {
		s[i] = dataset.Feature{Name: "c", Kind: dataset.Categorical, Arity: arity}
	}
	return s
}

// predictLabel classifies one row.
func predictLabel(c *Classifier, row []float64) int {
	var out [1]int
	c.PredictLabelBatch(&linalg.Matrix{Rows: 1, Cols: len(row), Data: row}, out[:])
	return out[0]
}

// predict is predictLabel for regression trees.
func predict(r *Regressor, row []float64) float64 {
	var out [1]float64
	r.PredictBatch(&linalg.Matrix{Rows: 1, Cols: len(row), Data: row}, out[:])
	return out[0]
}

func TestClassifierLearnsThresholdRule(t *testing.T) {
	src := rng.New(1)
	n := 200
	x := linalg.NewMatrix(n, 3)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Row(i)[j] = src.Norm()
		}
		if x.Row(i)[1] > 0.3 {
			y[i] = 1
		}
	}
	c := TrainClassifier(x, realSchema(3), y, 2, Params{})
	errs := 0
	for i := 0; i < n; i++ {
		if predictLabel(c, x.Row(i)) != y[i] {
			errs++
		}
	}
	if errs > n/20 {
		t.Errorf("%d/%d training errors on a single-threshold rule", errs, n)
	}
}

func TestClassifierLearnsCategoricalRule(t *testing.T) {
	src := rng.New(2)
	n := 300
	x := linalg.NewMatrix(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			x.Row(i)[j] = float64(src.IntN(3))
		}
		// XOR-ish rule over two categorical features.
		if int(x.Row(i)[0]) == 2 || int(x.Row(i)[2]) == 0 {
			y[i] = 1
		}
	}
	c := TrainClassifier(x, catSchema(4, 3), y, 2, Params{})
	errs := 0
	for i := 0; i < n; i++ {
		if predictLabel(c, x.Row(i)) != y[i] {
			errs++
		}
	}
	if errs > n/10 {
		t.Errorf("%d/%d training errors on categorical rule", errs, n)
	}
}

func TestRegressorLearnsPiecewiseConstant(t *testing.T) {
	src := rng.New(3)
	n := 300
	x := linalg.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Row(i)[0] = src.Uniform(0, 1)
		x.Row(i)[1] = src.Norm()
		if x.Row(i)[0] < 0.5 {
			y[i] = -2
		} else {
			y[i] = 3
		}
	}
	r := TrainRegressor(x, realSchema(2), y, Params{})
	var mse float64
	for i := 0; i < n; i++ {
		e := y[i] - predict(r, x.Row(i))
		mse += e * e
	}
	mse /= float64(n)
	if mse > 0.01 {
		t.Errorf("regressor MSE = %v on a step function", mse)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	src := rng.New(4)
	n := 500
	x := linalg.NewMatrix(n, 5)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 5; j++ {
			x.Row(i)[j] = src.Norm()
		}
		y[i] = src.IntN(2) // pure noise: tree would grow deep unchecked
	}
	c := TrainClassifier(x, realSchema(5), y, 2, Params{MaxDepth: 3, MinGain: 1e-12})
	if d := c.Depth(); d > 3 {
		t.Errorf("depth = %d, want <= 3", d)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	src := rng.New(5)
	n := 100
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x.Row(i)[0] = src.Norm()
		y[i] = src.IntN(2)
	}
	c := TrainClassifier(x, realSchema(2), y, 2, Params{MinLeaf: 40})
	// With MinLeaf 40 over 100 samples the tree can split at most once.
	if c.NumNodes() > 3 {
		t.Errorf("%d nodes with MinLeaf 40", c.NumNodes())
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	x := linalg.NewMatrix(10, 1)
	y := make([]int, 10) // all class 0
	for i := range y {
		x.Row(i)[0] = float64(i)
	}
	c := TrainClassifier(x, realSchema(1), y, 2, Params{})
	if c.NumNodes() != 1 {
		t.Errorf("pure training set grew %d nodes", c.NumNodes())
	}
	if predictLabel(c, []float64{99}) != 0 {
		t.Error("pure-leaf prediction wrong")
	}
}

func TestMissingValuesRoutedMajority(t *testing.T) {
	// Feature 0 splits the classes; a missing value at prediction time
	// must follow the branch with more training samples.
	n := 90
	x := linalg.NewMatrix(n, 1)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if i < 60 { // majority side: x < 0 -> class 0
			x.Row(i)[0] = -1 - float64(i%5)
			y[i] = 0
		} else {
			x.Row(i)[0] = 1 + float64(i%5)
			y[i] = 1
		}
	}
	c := TrainClassifier(x, realSchema(1), y, 2, Params{})
	if got := predictLabel(c, []float64{dataset.Missing}); got != 0 {
		t.Errorf("missing routed to class %d, want majority class 0", got)
	}
}

func TestMissingValuesInTraining(t *testing.T) {
	src := rng.New(6)
	n := 200
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x.Row(i)[0] = src.Norm()
		x.Row(i)[1] = src.Norm()
		if x.Row(i)[0] > 0 {
			y[i] = 1
		}
		if i%5 == 0 {
			x.Row(i)[0] = dataset.Missing // 20% missing on the informative feature
		}
	}
	c := TrainClassifier(x, realSchema(2), y, 2, Params{})
	errs := 0
	for i := 0; i < n; i++ {
		if !dataset.IsMissing(x.Row(i)[0]) && predictLabel(c, x.Row(i)) != y[i] {
			errs++
		}
	}
	if errs > n/8 {
		t.Errorf("%d errors with training missing values", errs)
	}
}

func TestTrainPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"label mismatch": func() { TrainClassifier(linalg.NewMatrix(3, 1), realSchema(1), []int{0}, 2, Params{}) },
		"schema mismatch": func() {
			TrainClassifier(linalg.NewMatrix(3, 2), realSchema(1), []int{0, 1, 0}, 2, Params{})
		},
		"bad arity": func() { TrainClassifier(linalg.NewMatrix(2, 1), realSchema(1), []int{0, 0}, 1, Params{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBytesAndDepthReporting(t *testing.T) {
	x := linalg.NewMatrix(4, 1)
	for i := 0; i < 4; i++ {
		x.Row(i)[0] = float64(i)
	}
	r := TrainRegressor(x, realSchema(1), []float64{0, 0, 10, 10}, Params{MinLeaf: 2, MaxDepth: 4})
	if r.Bytes() <= 0 {
		t.Error("Bytes must be positive")
	}
	if r.Depth() < 1 {
		t.Errorf("depth = %d, want >= 1 after a real split", r.Depth())
	}
}
