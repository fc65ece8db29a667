package core

import (
	"math"
	"sync"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
	"frac/internal/stats"
	"frac/internal/svm"
	"frac/internal/tree"
)

// RealPredictor predicts a continuous target from a term's inputs.
// PredictBatch predicts row i of x into out[i] for every row of x, where x
// holds model rows, one cell per schema feature; it reads only its term's
// inputs and retains neither x nor out. Implementations must tolerate
// missing (NaN) inputs, must be safe for concurrent PredictBatch calls and
// must not allocate per sample in steady state (internal workspaces are
// pooled, never fresh per call).
type RealPredictor interface {
	PredictBatch(x *linalg.Matrix, out []float64)
	Bytes() int64
}

// CatPredictor predicts a categorical target label from a term's inputs.
// PredictLabelBatch reads model rows and follows the same ownership and
// allocation contract as RealPredictor.PredictBatch.
type CatPredictor interface {
	PredictLabelBatch(x *linalg.Matrix, out []int)
	Bytes() int64
}

// RealLearnerFunc is the type of Learners.Real.
//
// Deprecated: custom learners are gone; Train never calls one.
type RealLearnerFunc func(x *linalg.Matrix, inputs dataset.Schema, y []float64, seed uint64) RealPredictor

// CatLearnerFunc is the type of Learners.Cat.
//
// Deprecated: custom learners are gone; Train never calls one.
type CatLearnerFunc func(x *linalg.Matrix, inputs dataset.Schema, y []int, arity int, seed uint64) CatPredictor

// Learners bundles the supervised models FRaC builds per feature kind: SVR
// for real targets and Tree for categorical ones, and Tree for real targets
// too when SVR is nil. With no field set it is unset, and Config then uses
// PaperLearners. Train returns an error when a term with inputs has no
// learner for its target's kind.
type Learners struct {
	// SVR, when non-nil, is the learner for real targets: a linear SVR with
	// these hyperparameters, trained by core's in-core pipeline (DESIGN.md
	// §10). Inputs and target are standardized to zero mean and unit
	// variance first — the svm-scale step of the libSVM workflow the
	// paper's experiments rely on — so the regularization strength C means
	// the same thing in every feature space, including JL-projected spaces
	// whose raw variances are much larger than 1. Missing inputs are imputed
	// with their column mean, and categorical inputs enter as their numeric
	// labels, matching the original FRaC release's handling.
	SVR *svm.SVRParams
	// Tree, when non-nil, is the tree learner: an entropy-minimizing
	// classification tree for categorical targets, and a variance-minimizing
	// regression tree for real targets when SVR is nil, with these
	// parameters. Trees handle missing inputs natively, and core trains
	// every one on the Train's shared design (DESIGN.md §10).
	Tree *tree.Params

	// Real is no longer called: set SVR or Tree instead. A Learners whose
	// only learners are Real or Cat is not unset but has no learner, so
	// Train rejects it.
	//
	// Deprecated: custom learners are gone.
	Real RealLearnerFunc
	// Cat is no longer called; see Real.
	//
	// Deprecated: custom learners are gone.
	Cat CatLearnerFunc

	// gather, when non-nil, trains the terms planTerms routes to the tree
	// through a gather-and-copy loop over Real and Cat instead, on the CV
	// fits of the term's fit schedule, and returns tm trained. Only this
	// package's test files set it, to the frozen reference the tree and SVR
	// routes are pinned to (gatherref_test.go). tm passes by value so that
	// it does not escape to the heap.
	gather func(tm termModel, train *dataset.Dataset, term Term, rows []int, fits []cvFit, cfg Config, src *rng.Source, sc *trainScratch) termModel
}

// isZero reports whether no learner is set.
func (l Learners) isZero() bool {
	return l.SVR == nil && l.Real == nil && l.Tree == nil && l.Cat == nil
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
	return Learners{SVR: &svrParams, Tree: &treeParams}
}

// TreeLearners uses decision trees for both feature kinds (the paper's SNP
// configuration, plus regression trees for the JL-space ablation).
func TreeLearners(params tree.Params) Learners {
	return Learners{Tree: &params}
}

// vecPool hands out pooled standardize buffers of a predictor's input
// width, so batch prediction is allocation-free in steady state while
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

// imputedReal is a primal SVR term's predictor. Its input j is column
// inputs[j] of the model's rows: inputs is its term's Inputs, shared, not
// copied (termModel.bytes counts it).
type imputedReal struct {
	model  *svm.SVR
	inputs []int
	means  []float64
	scales []float64 // 1/sd per input column
	yMean  float64
	ySD    float64
	vecs   vecPool
}

// PredictBatch standardizes each row's inputs straight from x into one
// pooled buffer, a missing cell taking its column's mean, and predicts from
// it.
func (p *imputedReal) PredictBatch(x *linalg.Matrix, out []float64) {
	cols := p.inputs
	b := p.vecs.get(len(p.means))
	buf := (*b)[:len(cols)]
	means, scales := p.means[:len(cols)], p.scales[:len(cols)]
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, c := range cols {
			v := row[c]
			if math.IsNaN(v) {
				v = means[j]
			}
			buf[j] = (v - means[j]) * scales[j]
		}
		out[i] = p.model.Predict(buf)*p.ySD + p.yMean
	}
	p.vecs.put(b)
}

func (p *imputedReal) Bytes() int64 {
	return p.model.Bytes() + int64(len(p.means)+len(p.scales))*8 + 16
}

// dualBasis is what a model's Gram-routed terms share (DESIGN.md §10): the
// final fit's standardized training rows Z (n x f, every feature) and the
// per-feature statistics that standardized them. The model holds it once.
type dualBasis struct {
	z      *linalg.Matrix
	means  []float64
	scales []float64 // 1/sd per feature, 0 for a constant one
}

func (b *dualBasis) bytes() int64 {
	return b.z.Bytes() + int64(len(b.means)+len(b.scales))*8
}

// standardize writes a scored row's cell c standardized with the basis
// statistics: a missing cell takes its feature's mean, as in training.
func (b *dualBasis) standardize(v float64, c int) float64 {
	if math.IsNaN(v) {
		v = b.means[c]
	}
	return (v - b.means[c]) * b.scales[c]
}

// project writes k_i = Z·z_i into row i of k for every row i of x, where z_i
// is the row standardized into the scratch z (length f): one O(n·f) pass per
// scored row that every Gram-routed term then reads in O(n).
func (b *dualBasis) project(x *linalg.Matrix, z []float64, k *linalg.Matrix) {
	for i := 0; i < x.Rows; i++ {
		for c, v := range x.Row(i) {
			z[c] = b.standardize(v, c)
		}
		dst := k.Row(i)
		for r := range dst {
			dst[r] = linalg.Dot(b.z.Row(r), z)
		}
	}
}

// dualReal is a Gram-routed term's predictor: its final fit in dual form
// over the model's basis. With w = Zᵀβ, the fit's weight on input j is w_j
// for every feature j but the target t, so a standardized row z predicts
// Σ_{j≠t} w_j·z_j + b = β·(Z·z) − u·z_t + b, where u = w_t.
type dualReal struct {
	beta  []float64 // one dual value per basis row
	b, u  float64
	yMean float64
	ySD   float64
}

// predictBatch predicts every row of x into out from the rows' basis
// projection k (dualBasis.project); t is the term's target.
func (p *dualReal) predictBatch(x, k *linalg.Matrix, basis *dualBasis, t int, out []float64) {
	for i := range out {
		zt := basis.standardize(x.At(i, t), t)
		out[i] = (linalg.Dot(p.beta, k.Row(i))-p.u*zt+p.b)*p.ySD + p.yMean
	}
}

func (p *dualReal) bytes() int64 { return int64(len(p.beta))*8 + 32 }

// constantReal is the fallback predictor for unlearnable terms (no inputs
// drawn, or too few observed samples): it predicts the training mean, making
// the term's error model the target's marginal distribution.
type constantReal struct{ value float64 }

func (p constantReal) PredictBatch(x *linalg.Matrix, out []float64) {
	for i := 0; i < x.Rows; i++ {
		out[i] = p.value
	}
}
func (p constantReal) Bytes() int64 { return 8 }

// constantCat predicts the training majority class.
type constantCat struct{ label int }

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
func marginalCatPredictor(y []int, arity int) constantCat {
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
