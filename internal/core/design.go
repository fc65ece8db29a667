package core

import (
	"math"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
	"frac/internal/stats"
	"frac/internal/svm"
)

// The design cache kills the O(f²) gather of full-FRaC training (DESIGN.md
// §10). Full, filtered, and partial wirings share the all-but-one input
// structure: term t's design matrix is the working matrix minus one column.
// Instead of each worker gathering a private n x (f-1) copy per term (plus a
// fold-view copy per CV fold), Train builds ONE imputed-and-standardized
// design matrix for the whole training set, shared read-only by every
// worker, and eligible SVR terms train in place with a masked target column
// through exact-order skip kernels. Peak training scratch falls from
// O(workers·n·f) private matrices to one O(n·f) shared matrix, and per-term
// cost drops from O(CVFolds·n·f) copying plus O(iter·n·f) math to the math
// alone.
//
// Bit-identity is the load-bearing constraint: the masked path must produce
// exactly the scores of the gather path (the pinned goldens, enforced by
// TestMaskedTrainingBitIdentical). That dictates the eligibility rules:
//
//   - Only real-valued targets trained by the linear SVR learner
//     (Learners.MaskedSVR non-nil) qualify — the masked trainer replays the
//     impute+standardize+TrainSVR pipeline cell for cell.
//   - The target column must be fully observed: the gather path trains over
//     the rows where the target is observed, and only when that row set is
//     ALL rows do the shared all-rows column statistics (and the shared
//     standardized matrix built from them) coincide bitwise with what the
//     per-term gather would have computed. Input columns may still contain
//     missing cells — they impute to the column mean, standardizing to ±0
//     exactly as the copying pipeline produces.
//   - The term must have the all-but-one shape (inputs = every other
//     working-set column, ascending), so the gathered column order equals
//     ascending-skip-one order and the skip kernels' partial-sum chains
//     match gather-then-Dot. Diverse, JL-subset, and marginal terms keep
//     the gather path.
//
// Cross-validation folds cannot share materialized per-fold matrices
// across terms: the fold partition comes from each term's identity-keyed
// RNG stream (dataset.KFold over the term stream), so two terms never agree
// on which rows form fold i, and fold-level column statistics — means and
// scales over that term's training rows — are per-term by construction. The
// fold path therefore computes per-fold statistics from the shared RAW
// working matrix (two O(n·f) read passes into per-worker f-wide vectors)
// and materializes ONE standardized fold matrix in reused worker scratch —
// the coordinate-descent loop must iterate over plain floats, because
// standardizing lazily inside the O(MaxIter·n·f) inner loop costs far more
// than one O(n·f) write pass. Holdout predictions read the raw rows through
// the lazily-standardizing kernels (one pass each, nothing materialized).
// Per-term cost drops from five O(n·f) passes plus four f-wide allocations
// per fold (gather, fold view, impute copy, standardize, learner buffers)
// to two read passes and one write pass into pooled scratch.

// designCache is the per-Train shared state of the masked train path. It is
// built once before the worker fan-out and read-only afterwards, so workers
// share it without synchronization.
type designCache struct {
	params svm.SVRParams // the SVR hyperparameters Learners.Real trains with

	// std is the shared design matrix: the working matrix imputed and
	// standardized with all-rows column statistics. Final (non-fold) models
	// of eligible terms train directly against it with masked-column
	// kernels.
	std *linalg.Matrix
	// means/scales are the all-rows column statistics behind std, retained
	// compacted into each eligible term's trained predictor.
	means  []float64
	scales []float64

	// eligible marks the terms routed through the masked path.
	eligible []bool
	numElig  int
}

// allButOneShape reports whether the term's inputs are exactly every other
// working-set column in ascending order — the structural precondition for
// masked training (gathered order == ascending-skip-one order).
func allButOneShape(t Term, numFeatures int) bool {
	if len(t.Inputs) != numFeatures-1 {
		return false
	}
	for j, c := range t.Inputs {
		want := j
		if j >= t.Target {
			want = j + 1
		}
		if c != want {
			return false
		}
	}
	return true
}

// buildDesignCache decides per-term eligibility and, when any term
// qualifies, builds the shared standardized design matrix. Returns nil when
// the masked path is disabled, the learners are not the masked-capable SVR,
// or no term qualifies — Train then behaves exactly as before.
func buildDesignCache(train *dataset.Dataset, terms []Term, cfg Config) *designCache {
	if cfg.DisableMaskedTrain || cfg.Learners.MaskedSVR == nil {
		return nil
	}
	n, f := train.NumSamples(), train.NumFeatures()
	if n < cfg.MinObserved || f < 2 {
		return nil
	}
	// A column is maskable as a target only when fully observed (see the
	// eligibility rules above).
	fullCol := make([]bool, f)
	for j := range fullCol {
		fullCol[j] = true
	}
	for i := 0; i < n; i++ {
		row := train.Sample(i)
		for j, v := range row {
			if fullCol[j] && math.IsNaN(v) {
				fullCol[j] = false
			}
		}
	}
	dc := &designCache{params: *cfg.Learners.MaskedSVR, eligible: make([]bool, len(terms))}
	for ti, t := range terms {
		if train.Schema[t.Target].Kind != dataset.Real {
			continue
		}
		if !fullCol[t.Target] || !allButOneShape(t, f) {
			continue
		}
		dc.eligible[ti] = true
		dc.numElig++
	}
	if dc.numElig == 0 {
		return nil
	}

	// All-rows column statistics, in the exact float order of the copying
	// pipeline (imputeMatrixInto then standardizeMatrix): means accumulate
	// per column in row order over observed cells, then sums of squared
	// deviations run per column in row order with missing cells imputed to
	// the mean (contributing exactly +0).
	dc.means = make([]float64, f)
	counts := make([]int, f)
	for i := 0; i < n; i++ {
		row := train.Sample(i)
		for j, v := range row {
			if !math.IsNaN(v) {
				dc.means[j] += v
				counts[j]++
			}
		}
	}
	for j := range dc.means {
		if counts[j] > 0 {
			dc.means[j] /= float64(counts[j])
		}
	}
	dc.scales = make([]float64, f)
	for j := 0; j < f; j++ {
		m := dc.means[j]
		var ss float64
		for i := 0; i < n; i++ {
			v := train.X.At(i, j)
			if math.IsNaN(v) {
				v = m
			}
			d := v - m
			ss += d * d
		}
		sd := 0.0
		if n > 1 {
			sd = math.Sqrt(ss / float64(n-1))
		}
		if sd > stats.MinSigma {
			dc.scales[j] = 1 / sd
		}
	}
	dc.std = linalg.NewMatrix(n, f)
	for i := 0; i < n; i++ {
		src := train.Sample(i)
		dst := dc.std.Row(i)
		for j, v := range src {
			if math.IsNaN(v) {
				v = dc.means[j]
			}
			dst[j] = (v - dc.means[j]) * dc.scales[j]
		}
	}
	return dc
}

// forTerm returns the cache when term ti is eligible for masked training,
// nil otherwise. Nil-safe.
func (dc *designCache) forTerm(ti int) *designCache {
	if dc == nil || !dc.eligible[ti] {
		return nil
	}
	return dc
}

// bytes reports the cache's analytic footprint (the shared matrix plus the
// statistics vectors).
func (dc *designCache) bytes() int64 {
	if dc == nil {
		return 0
	}
	return dc.std.Bytes() + int64(len(dc.means)+len(dc.scales))*8
}

// maskedScratch is the per-worker reusable state of masked training: fold
// statistics vectors, the standardized-target buffer, and the SVR workspace.
// Everything here is transient — retained models copy what they keep.
type maskedScratch struct {
	means  []float64
	scales []float64
	counts []int
	yStd   []float64
	ws     svm.SVRWorkspace
	// foldStd is the materialized standardized fold matrix (training rows
	// only, full width); one buffer serves every fold of every term a worker
	// handles.
	foldStd *linalg.Matrix
}

// floats returns the scratch target buffer resized to length n.
func (ms *maskedScratch) floats(n int) []float64 {
	if cap(ms.yStd) < n {
		ms.yStd = make([]float64, n)
	}
	ms.yStd = ms.yStd[:n]
	return ms.yStd
}

// foldStats computes per-column impute/standardize statistics over the given
// row subset of the raw working matrix, mirroring imputeMatrixInto +
// standardizeMatrix on the gathered fold view float for float: per-column
// accumulation in training-row order, sample standard deviation over
// len(rows)-1, scales zeroed below MinSigma.
func (ms *maskedScratch) foldStats(x *linalg.Matrix, rows []int) {
	f := x.Cols
	if cap(ms.means) < f {
		ms.means = make([]float64, f)
		ms.scales = make([]float64, f)
		ms.counts = make([]int, f)
	}
	means, scales, counts := ms.means[:f], ms.scales[:f], ms.counts[:f]
	ms.means, ms.scales, ms.counts = means, scales, counts
	for j := 0; j < f; j++ {
		means[j], scales[j], counts[j] = 0, 0, 0
	}
	for _, r := range rows {
		row := x.Row(r)
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
	for j := 0; j < f; j++ {
		m := means[j]
		var ss float64
		for _, r := range rows {
			v := x.At(r, j)
			if math.IsNaN(v) {
				v = m
			}
			d := v - m
			ss += d * d
		}
		sd := 0.0
		if len(rows) > 1 {
			sd = math.Sqrt(ss / float64(len(rows)-1))
		}
		if sd > stats.MinSigma {
			scales[j] = 1 / sd
		}
	}
}

// fitMasked standardizes the target and trains one masked SVR, mirroring
// SVRLearner's target handling (MeanVar, MinSigma floor, Bias on) so the
// trained weights are bit-identical to the gathered pipeline's.
func (dc *designCache) fitMasked(view svm.MaskedView, y []float64, seed uint64, ms *maskedScratch) (model *svm.SVR, yMean, ySD float64) {
	yMean, yVar := stats.MeanVar(y)
	ySD = math.Sqrt(yVar)
	if ySD < stats.MinSigma {
		ySD = 1
	}
	yStd := ms.floats(len(y))
	for i, v := range y {
		yStd[i] = (v - yMean) / ySD
	}
	p := dc.params
	p.Seed = seed
	p.Bias = true
	return svm.TrainSVRMasked(view, yStd, p, &ms.ws), yMean, ySD
}

// trainRealTermMasked is the masked-path counterpart of trainRealTerm's
// non-marginal branch: identical CV folds, residual order, and error-model
// fitting, with every design-matrix copy replaced by shared-matrix reads.
func (dc *designCache) trainRealTermMasked(tm *termModel, train *dataset.Dataset, term Term, y []float64, cfg Config, src *rng.Source, sc *trainScratch) {
	n := train.NumSamples()
	ms := &sc.masked
	folds := dataset.KFold(n, cfg.CVFolds, src)
	residuals := sc.residuals[:0]
	for fi, fold := range folds {
		trIdx := sc.complement(n, fold)
		if len(trIdx) == 0 || len(fold) == 0 {
			continue
		}
		sc.foldYF = subFloatsInto(sc.foldYF, y, trIdx)
		ms.foldStats(train.X, trIdx)
		// Materialize the standardized fold matrix once (scratch-backed): the
		// CD loop's O(MaxIter·n·f) reads must hit plain floats, not a lazy
		// standardizing kernel. Cell values are bitwise the same either way.
		ms.foldStd = linalg.Resize(ms.foldStd, len(trIdx), train.X.Cols)
		for i, r := range trIdx {
			raw := train.X.Row(r)
			dst := ms.foldStd.Row(i)
			for j, v := range raw {
				if math.IsNaN(v) {
					v = ms.means[j]
				}
				dst[j] = (v - ms.means[j]) * ms.scales[j]
			}
		}
		model, yMean, ySD := dc.fitMasked(svm.MaskedView{X: ms.foldStd, Skip: term.Target}, sc.foldYF, src.Seed()^uint64(fi+1), ms)
		// Holdout predictions standardize the raw rows on the fly.
		for _, h := range fold {
			pred := model.PredictSkipStd(train.X.Row(h), ms.means, ms.scales, term.Target)*ySD + yMean
			residuals = append(residuals, y[h]-pred)
		}
	}
	sc.residuals = residuals
	if len(residuals) == 0 {
		residuals = []float64{0}
	}
	tm.realErr = fitRealError(residuals, cfg.KDEError)
	model, yMean, ySD := dc.fitMasked(svm.MaskedView{X: dc.std, Skip: term.Target}, y, src.Seed(), ms)
	tm.real = dc.retained(model, term.Target, yMean, ySD)
}

// retained compacts a full-width masked model into the gathered input space
// (term inputs in ascending order, target column removed), producing the
// same imputedReal the gathered SVRLearner would retain — so scoring,
// serialization, and Bytes accounting are untouched by the masked path.
func (dc *designCache) retained(model *svm.SVR, target int, yMean, ySD float64) RealPredictor {
	d := len(dc.means) - 1
	w := make([]float64, d)
	means := make([]float64, d)
	scales := make([]float64, d)
	for j := 0; j < d; j++ {
		c := j
		if j >= target {
			c = j + 1
		}
		w[j] = model.W[c]
		means[j] = dc.means[c]
		scales[j] = dc.scales[c]
	}
	return &imputedReal{
		model:  &svm.SVR{W: w, B: model.B, Iters: model.Iters},
		means:  means,
		scales: scales,
		yMean:  yMean,
		ySD:    ySD,
	}
}
