package core

import (
	"fmt"
	"math"
	"sync"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
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
// too when SVR is nil. With no field set it is unset: Config then uses
// PaperLearners, and JLSpec keeps the config's learners. Train returns an
// error when a term with inputs has no learner for its target's kind.
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

	// gather, when non-nil, trains the terms the tree route would
	// (takesTree) through a gather-and-copy loop over Real and Cat instead,
	// and returns tm trained. Only this package's test files set it, to the
	// frozen reference the tree and SVR routes are pinned to
	// (gatherref_test.go). tm passes by value so that it does not escape to
	// the heap.
	gather func(tm termModel, train *dataset.Dataset, term Term, rows []int, cfg Config, src *rng.Source, sc *trainScratch) termModel
}

// isZero reports whether no learner is set.
func (l Learners) isZero() bool {
	return l.SVR == nil && l.Real == nil && l.Tree == nil && l.Cat == nil
}

// check reports the first term that has inputs but no learner for its
// target's kind, before any worker would call the missing one.
func (l Learners) check(schema dataset.Schema, terms []Term) error {
	if l.Tree != nil {
		return nil
	}
	for _, t := range terms {
		if len(t.Inputs) == 0 {
			continue
		}
		feat := schema[t.Target]
		switch {
		case feat.Kind == dataset.Categorical:
			return fmt.Errorf("core: categorical feature %d (%q) has no learner: Learners.Tree is nil", t.Target, feat.Name)
		case l.SVR == nil:
			return fmt.Errorf("core: real feature %d (%q) has no learner: Learners.SVR and Learners.Tree are nil", t.Target, feat.Name)
		}
	}
	return nil
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
