package core

import (
	"math"
	"sync"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/stats"
	"frac/internal/svm"
	"frac/internal/tree"
)

// This file is the frozen gather-path SVR reference: a RealLearnerFunc that
// imputes and standardizes a gathered copy of the term's inputs and trains
// svm.TrainSVR on it. Production real terms train in core (svrterm.go);
// TestInCoreTrainingBitIdentical pins that pipeline's scores to this one's
// bit for bit, so do not change it.

// referenceLearners routes every learned term through the gather loop
// (gatherref_test.go): with Tree set and SVR nil, takesTree gives the loop
// every learned term, and it trains real terms with SVRLearner and
// categorical terms with TreeCatLearner, with PaperLearners'
// hyperparameters.
func referenceLearners() Learners {
	return Learners{Tree: &tree.Params{}, Real: SVRLearner(svm.SVRParams{}), Cat: TreeCatLearner(tree.Params{}), gather: gatherTerm}
}

// SVRLearner adapts linear support-vector regression, adding mean
// imputation for missing inputs (SVMs need fully numeric matrices;
// categorical inputs participate as their numeric labels, matching the
// original FRaC release's handling). Inputs and target are standardized to
// zero mean and unit variance before training — the svm-scale step of the
// libSVM workflow the paper's experiments rely on — so the regularization
// strength C means the same thing in every feature space, including
// JL-projected spaces whose raw variances are much larger than 1.
func SVRLearner(params svm.SVRParams) RealLearnerFunc {
	return func(x *linalg.Matrix, inputs dataset.Schema, y []float64, seed uint64) RealPredictor {
		ls := learnerScratchPool.Get().(*learnerScratch)
		means, clean := imputeMatrixInto(x, ls)
		scales := standardizeMatrix(clean, means)
		yMean, yVar := stats.MeanVar(y)
		ySD := math.Sqrt(yVar)
		if ySD < stats.MinSigma {
			ySD = 1
		}
		yStd := ls.floats(len(y))
		for i, v := range y {
			yStd[i] = (v - yMean) / ySD
		}
		// Copy before customizing: the closure is shared by every concurrent
		// term training, so writing through the captured params would race.
		p := params
		p.Seed = seed
		p.Bias = true
		model := svm.TrainSVR(clean, yStd, p, nil)
		learnerScratchPool.Put(ls)
		return &imputedReal{model: model, inputs: gatheredInputs(x.Cols), means: means, scales: scales, yMean: yMean, ySD: ySD}
	}
}

// identityCols backs gatheredInputs: it only grows, so the prefixes handed
// out are never written again.
var identityCols struct {
	sync.Mutex
	cols []int
}

// gatheredInputs returns [0, n), the inputs of a predictor that reads
// gathered rows of n cells: a prefix of one shared slice, so that a fit
// allocates nothing for them.
func gatheredInputs(n int) []int {
	identityCols.Lock()
	defer identityCols.Unlock()
	for len(identityCols.cols) < n {
		identityCols.cols = append(identityCols.cols, len(identityCols.cols))
	}
	return identityCols.cols[:n:n]
}

// standardizeMatrix scales each column of the (already imputed, mean-known)
// matrix in place to unit standard deviation around the provided means, and
// returns the per-column scales (1/sd; 0-variance columns get scale 0,
// zeroing them out).
func standardizeMatrix(x *linalg.Matrix, means []float64) []float64 {
	scales := make([]float64, x.Cols)
	for j := 0; j < x.Cols; j++ {
		var ss float64
		for i := 0; i < x.Rows; i++ {
			d := x.At(i, j) - means[j]
			ss += d * d
		}
		sd := 0.0
		if x.Rows > 1 {
			sd = math.Sqrt(ss / float64(x.Rows-1))
		}
		if sd > stats.MinSigma {
			scales[j] = 1 / sd
		}
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = (row[j] - means[j]) * scales[j]
		}
	}
	return scales
}

// learnerScratch pools the transient buffers of one SVRLearner call:
// the imputed matrix copy, the observation counts, and the standardized
// target. Nothing stored here may be retained by a trained predictor — only
// freshly allocated slices (means, scales) survive the call.
type learnerScratch struct {
	clean  *linalg.Matrix
	counts []int
	yStd   []float64
}

var learnerScratchPool = sync.Pool{New: func() any { return new(learnerScratch) }}

// floats returns the scratch float buffer resized to length n.
func (ls *learnerScratch) floats(n int) []float64 {
	if cap(ls.yStd) < n {
		ls.yStd = make([]float64, n)
	}
	ls.yStd = ls.yStd[:n]
	return ls.yStd
}

// imputeMatrixInto computes per-column means over observed cells and returns
// them with an imputed copy of x; columns with no observed values impute 0.
// The copy and count buffers come from ls. The returned means slice is
// freshly allocated (predictors retain it); the clean matrix is
// scratch-owned and only valid until ls is reused.
func imputeMatrixInto(x *linalg.Matrix, ls *learnerScratch) (means []float64, clean *linalg.Matrix) {
	means = make([]float64, x.Cols)
	if cap(ls.counts) < x.Cols {
		ls.counts = make([]int, x.Cols)
	}
	counts := ls.counts[:x.Cols]
	for j := range counts {
		counts[j] = 0
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			if !math.IsNaN(v) {
				means[j] += v
				counts[j]++
			}
		}
	}
	for j := range means {
		if counts[j] > 0 {
			means[j] /= float64(counts[j])
		}
	}
	ls.clean = linalg.Resize(ls.clean, x.Rows, x.Cols)
	clean = ls.clean
	copy(clean.Data, x.Data)
	for i := 0; i < clean.Rows; i++ {
		row := clean.Row(i)
		for j, v := range row {
			if math.IsNaN(v) {
				row[j] = means[j]
			}
		}
	}
	return means, clean
}
