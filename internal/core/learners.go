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

// RealPredictor predicts a continuous target from an input vector in the
// term's input space. Implementations must tolerate missing (NaN) inputs.
//
// PredictBatch predicts every row of x into out[:x.Rows] without retaining
// either argument; the rows are the batch analogue of Predict's x.
// Implementations must be safe for concurrent Predict/PredictBatch calls and
// must not allocate per sample in steady state (internal workspaces are
// pooled, never fresh per call).
type RealPredictor interface {
	Predict(x []float64) float64
	PredictBatch(x *linalg.Matrix, out []float64)
	Bytes() int64
}

// CatPredictor predicts a categorical target label from an input vector in
// the term's input space. Implementations must tolerate missing inputs.
// PredictLabelBatch follows the same ownership and allocation contract as
// RealPredictor.PredictBatch.
type CatPredictor interface {
	PredictLabel(x []float64) int
	PredictLabelBatch(x *linalg.Matrix, out []int)
	Bytes() int64
}

// RealLearnerFunc trains a continuous-target predictor. x is the gathered
// n x d input matrix (possibly containing NaN for missing cells), inputs its
// schema, y the observed targets.
type RealLearnerFunc func(x *linalg.Matrix, inputs dataset.Schema, y []float64, seed uint64) RealPredictor

// CatLearnerFunc trains a categorical-target predictor with labels in
// [0, arity).
type CatLearnerFunc func(x *linalg.Matrix, inputs dataset.Schema, y []int, arity int, seed uint64) CatPredictor

// Learners bundles the supervised models FRaC builds per feature kind.
type Learners struct {
	Name string
	Real RealLearnerFunc
	Cat  CatLearnerFunc
	// SVR, when non-nil, declares that Real is SVRLearner with exactly these
	// hyperparameters, and every non-marginal real term then trains through
	// the in-core SVR pipeline (DESIGN.md §10) instead of calling Real. The
	// models are bit-identical; only the memory traffic changes. Custom Real
	// learners must leave this nil.
	SVR *svm.SVRParams
}

// PaperLearners returns the paper's §III.B configuration: linear SVMs for
// continuous features, entropy-minimizing decision trees for categorical
// features.
func PaperLearners() Learners {
	return MixedLearners(svm.SVRParams{}, tree.Params{})
}

// MixedLearners builds the SVR + decision-tree combination with explicit
// hyperparameters.
func MixedLearners(svrParams svm.SVRParams, treeParams tree.Params) Learners {
	p := svrParams
	return Learners{
		Name: "svr+tree",
		Real: SVRLearner(svrParams),
		Cat:  TreeCatLearner(treeParams),
		SVR:  &p,
	}
}

// TreeLearners uses decision trees for both feature kinds (the paper's SNP
// configuration, plus regression trees for the JL-space ablation).
func TreeLearners(params tree.Params) Learners {
	return Learners{
		Name: "tree",
		Real: TreeRealLearner(params),
		Cat:  TreeCatLearner(params),
	}
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
		return &imputedReal{model: model, means: means, scales: scales, yMean: yMean, ySD: ySD}
	}
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

// TreeRealLearner adapts regression trees (native missing-value handling).
func TreeRealLearner(params tree.Params) RealLearnerFunc {
	return func(x *linalg.Matrix, inputs dataset.Schema, y []float64, seed uint64) RealPredictor {
		return tree.TrainRegressor(x, inputs, y, params)
	}
}

// TreeCatLearner adapts classification trees (native missing-value
// handling).
func TreeCatLearner(params tree.Params) CatLearnerFunc {
	return func(x *linalg.Matrix, inputs dataset.Schema, y []int, arity int, seed uint64) CatPredictor {
		return tree.TrainClassifier(x, inputs, y, arity, params)
	}
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

// imputeVec fills missing entries of x with means, writing into dst (reused
// when it has the capacity, allocated otherwise).
func imputeVec(x, means, dst []float64) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for j, v := range x {
		if math.IsNaN(v) {
			dst[j] = means[j]
		} else {
			dst[j] = v
		}
	}
	return dst
}

// vecPool hands out pooled impute/standardize buffers of a predictor's input
// width, so per-sample prediction is allocation-free in steady state while
// staying safe under concurrent use. The zero value is ready (decoded
// predictors rely on that).
type vecPool struct{ pool sync.Pool }

func (vp *vecPool) get(n int) *[]float64 {
	if v := vp.pool.Get(); v != nil {
		return v.(*[]float64)
	}
	b := make([]float64, n)
	return &b
}

func (vp *vecPool) put(b *[]float64) { vp.pool.Put(b) }

type imputedReal struct {
	model  *svm.SVR
	means  []float64
	scales []float64 // 1/sd per input column
	yMean  float64
	ySD    float64
	vecs   vecPool
}

// predictBuf predicts one sample using buf (len >= len(x)) as the
// impute+standardize workspace.
func (p *imputedReal) predictBuf(x, buf []float64) float64 {
	buf = imputeVec(x, p.means, buf)
	for j := range buf {
		buf[j] = (buf[j] - p.means[j]) * p.scales[j]
	}
	return p.model.Predict(buf)*p.ySD + p.yMean
}

func (p *imputedReal) Predict(x []float64) float64 {
	b := p.vecs.get(len(p.means))
	v := p.predictBuf(x, *b)
	p.vecs.put(b)
	return v
}

func (p *imputedReal) PredictBatch(x *linalg.Matrix, out []float64) {
	b := p.vecs.get(len(p.means))
	for i := 0; i < x.Rows; i++ {
		out[i] = p.predictBuf(x.Row(i), *b)
	}
	p.vecs.put(b)
}

func (p *imputedReal) Bytes() int64 {
	return p.model.Bytes() + int64(len(p.means)+len(p.scales))*8 + 16
}

// constantReal is the fallback predictor for unlearnable terms (no inputs
// drawn, or too few observed samples): it predicts the training mean, making
// the term's error model the target's marginal distribution.
type constantReal struct{ value float64 }

func (p constantReal) Predict([]float64) float64 { return p.value }
func (p constantReal) PredictBatch(x *linalg.Matrix, out []float64) {
	for i := 0; i < x.Rows; i++ {
		out[i] = p.value
	}
}
func (p constantReal) Bytes() int64 { return 8 }

// constantCat predicts the training majority class.
type constantCat struct{ label int }

func (p constantCat) PredictLabel([]float64) int { return p.label }
func (p constantCat) PredictLabelBatch(x *linalg.Matrix, out []int) {
	for i := 0; i < x.Rows; i++ {
		out[i] = p.label
	}
}
func (p constantCat) Bytes() int64 { return 8 }

// marginalRealPredictor builds the fallback for a continuous target.
func marginalRealPredictor(y []float64) RealPredictor {
	return constantReal{value: stats.Mean(y)}
}

// marginalCatPredictor builds the fallback for a categorical target.
func marginalCatPredictor(y []int, arity int) CatPredictor {
	counts := make([]int, arity)
	for _, v := range y {
		counts[v]++
	}
	best, bestC := 0, -1
	for c, n := range counts {
		if n > bestC {
			best, bestC = c, n
		}
	}
	return constantCat{label: best}
}
