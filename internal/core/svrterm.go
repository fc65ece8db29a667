package core

import (
	"context"
	"math"
	"slices"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/obs"
	"frac/internal/rng"
	"frac/internal/stats"
	"frac/internal/svm"
)

// The in-core SVR term trainer (DESIGN.md §10) fits every non-marginal real
// term when Learners.SVR is set, whatever the wiring and however many target
// cells are missing, on one of two routes chosen by the term's shape alone.
//
// The primal route reads each term's cells straight from the training
// matrix into one per-worker buffer: no gathered copy, no imputed second
// copy, no fold views, and no fresh solver buffers per fit.
// TestInCoreTrainingBitIdentical pins its scores bit for bit to the frozen
// gather-path reference in svrref_test.go, which gathers each term, imputes
// and standardizes a copy, and trains and predicts through the same
// TrainSVR and imputedReal.
//
// The Gram route takes the terms whose target is observed on every training
// row and whose inputs are all the other features, when the training set
// has fewer rows than such a term has inputs (n < f−1, the paper's regime).
// Those terms share their rows and, since a Train draws one set of CV folds
// (cvFolds), every fit's standardized design but for one column. So TrainCtx
// builds each fit's Gram once (gramShared), and a term trains on the rank-one
// downdate K − z_t·z_tᵀ in O(n²) per epoch instead of O(n·f). The term keeps
// its final fit in dual form (dualReal) over the final fit's standardized
// rows, which the model keeps once (dualBasis), so scoring a row costs one
// O(n·f) projection for all of them. Its scores match the reference's to
// rounding (1e-9 relative, pinned by the same test).

// svrScratch is the per-worker state of the in-core trainer. Nothing in it
// outlives a term: the final fit copies out what the model retains.
type svrScratch struct {
	// design holds one fit's standardized rows, training rows first and
	// held-out rows after them; fit views the leading training rows.
	design *linalg.Matrix
	fit    linalg.Matrix
	// order lists the training-set rows behind design's rows, and yFit the
	// targets of a fold fit's training rows.
	order  []int
	yFit   []float64
	means  []float64
	scales []float64
	counts []int
	yStd   []float64
	ws     svm.SVRWorkspace

	// The Gram route's per-term state: the target column standardized with
	// a fit's statistics and the fit's downdated Gram.
	zt []float64
	kt *linalg.Matrix
}

// resize sizes the scratch for a term with m observed rows and d inputs and
// reports any growth of the design buffer to rec.
func (ts *svrScratch) resize(m, d int, rec *obs.Recorder) {
	old := 0
	if ts.design != nil {
		old = cap(ts.design.Data)
	}
	ts.design = linalg.Resize(ts.design, m, d)
	if grown := cap(ts.design.Data) - old; grown > 0 {
		rec.Add(obs.CounterDesignCacheBytes, int64(grown)*8)
	}
	if cap(ts.order) < m {
		ts.order = make([]int, 0, m)
	}
	if cap(ts.means) < d {
		ts.means = make([]float64, d)
		ts.scales = make([]float64, d)
		ts.counts = make([]int, d)
	}
	ts.means, ts.scales, ts.counts = ts.means[:d], ts.scales[:d], ts.counts[:d]
}

// standardize writes the design for the training-set rows in order: the
// term's input columns in term order, missing cells imputed to the column
// mean, every cell centred and scaled with statistics over the first nFit
// rows only. The statistics follow the reference's float for float: each
// column accumulates in row order, imputed cells deviate by exactly 0, the
// sample SD divides by nFit-1, and columns whose SD is at most MinSigma get
// scale 0.
func (ts *svrScratch) standardize(x *linalg.Matrix, order []int, nFit int, inputs []int) {
	means, scales, counts := ts.means, ts.scales, ts.counts
	for j := range means {
		means[j], scales[j], counts[j] = 0, 0, 0
	}
	for _, r := range order[:nFit] {
		row := x.Row(r)
		for j, c := range inputs {
			if v := row[c]; !math.IsNaN(v) {
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
	// scales holds each column's sum of squared deviations until converted.
	for _, r := range order[:nFit] {
		row := x.Row(r)
		for j, c := range inputs {
			v := row[c]
			if math.IsNaN(v) {
				v = means[j]
			}
			d := v - means[j]
			scales[j] += d * d
		}
	}
	for j, ss := range scales {
		sd := 0.0
		if nFit > 1 {
			sd = math.Sqrt(ss / float64(nFit-1))
		}
		scales[j] = 0
		if sd > stats.MinSigma {
			scales[j] = 1 / sd
		}
	}
	for i, r := range order {
		src, dst := x.Row(r), ts.design.Row(i)
		for j, c := range inputs {
			v := src[c]
			if math.IsNaN(v) {
				v = means[j]
			}
			dst[j] = (v - means[j]) * scales[j]
		}
	}
}

// standardizeTarget writes y standardized the reference's way (MeanVar,
// MinSigma floor) into the scratch.
func (ts *svrScratch) standardizeTarget(y []float64) (yStd []float64, yMean, ySD float64) {
	yMean, yVar := stats.MeanVar(y)
	ySD = math.Sqrt(yVar)
	if ySD < stats.MinSigma {
		ySD = 1
	}
	if cap(ts.yStd) < len(y) {
		ts.yStd = make([]float64, len(y))
	}
	yStd = ts.yStd[:len(y)]
	for i, v := range y {
		yStd[i] = (v - yMean) / ySD
	}
	return yStd, yMean, ySD
}

// train standardizes the design for order and fits the SVR on its first
// len(y) rows, with the reference's target handling and the bias on. The
// model's W aliases the workspace.
func (ts *svrScratch) train(x *linalg.Matrix, order []int, inputs []int, y []float64, params svm.SVRParams, seed uint64, rec *obs.Recorder) (model *svm.SVR, yMean, ySD float64) {
	nFit := len(y)
	ts.standardize(x, order, nFit, inputs)
	yStd, yMean, ySD := ts.standardizeTarget(y)
	params.Seed = seed
	params.Bias = true
	ts.fit = linalg.Matrix{Rows: nFit, Cols: len(inputs), Data: ts.design.Data[:nFit*len(inputs)]}
	model = svm.TrainSVR(&ts.fit, yStd, params, &ts.ws)
	countFit(rec, model.Iters, params.MaxIter)
	return model, yMean, ySD
}

// countFit records one SVR fit's solver counters.
func countFit(rec *obs.Recorder, iters, maxIter int) {
	rec.Add(obs.CounterSVRFits, 1)
	rec.Add(obs.CounterSVREpochs, int64(iters))
	if iters >= maxIter {
		rec.Add(obs.CounterSVRMaxIter, 1)
	}
}

// trainSVRTerm fits one non-marginal real term in core: cross-validated
// residuals for the error model over the same folds the reference route
// draws, then the final fit over every observed row. rows are the observed
// training rows of the target and y their target values.
func trainSVRTerm(tm *termModel, train *dataset.Dataset, term Term, rows []int, y []float64, cfg Config, src *rng.Source, sc *trainScratch) {
	ts := &sc.svr
	m := len(rows)
	// Every fit writes all m rows (training plus held-out), so one resize
	// serves the whole term; svrReservation charges it.
	ts.resize(m, len(term.Inputs), cfg.Obs)
	params := cfg.Learners.SVR.WithDefaults()
	folds := cvFolds(cfg, m)
	residuals := sc.residuals[:0]
	for fi, fold := range folds {
		trIdx := sc.complement(m, fold)
		if len(trIdx) == 0 || len(fold) == 0 {
			continue
		}
		order, yFit := ts.order[:0], slices.Grow(ts.yFit[:0], len(trIdx))
		for _, i := range trIdx {
			order = append(order, rows[i])
			yFit = append(yFit, y[i])
		}
		for _, h := range fold {
			order = append(order, rows[h])
		}
		ts.order, ts.yFit = order, yFit
		model, yMean, ySD := ts.train(train.X, order, term.Inputs, yFit, params, src.Seed()^uint64(fi+1), cfg.Obs)
		for k, h := range fold {
			pred := model.Predict(ts.design.Row(len(trIdx)+k))*ySD + yMean
			residuals = append(residuals, y[h]-pred)
		}
	}
	sc.residuals = residuals
	if len(residuals) == 0 {
		residuals = []float64{0}
	}
	tm.realErr = fitRealError(residuals, cfg.KDEError)
	model, yMean, ySD := ts.train(train.X, rows, term.Inputs, y, params, src.Seed(), cfg.Obs)
	tm.real = &imputedReal{
		model:  &svm.SVR{W: linalg.Clone(model.W), B: model.B, Iters: model.Iters},
		inputs: term.Inputs,
		means:  linalg.Clone(ts.means),
		scales: linalg.Clone(ts.scales),
		yMean:  yMean,
		ySD:    ySD,
	}
}

// gramShared is what the Gram route's terms share within one Train: for
// each CV fold and for the final fit, the statistics of every feature over
// the fit's training rows and the Grams of the standardized rows. TrainCtx
// builds it once, before any term trains, and only if some term takes the
// route. Workers read it and never write it, and it lives for one call: it
// is never cached, since a caller may change the training set in place
// between Trains. Only the basis outlives the call, in the model.
type gramShared struct {
	n, f  int
	folds []gramFit // the CV fits whose two sides are non-empty, in fold order
	full  gramFit   // the final fit over every row; it holds nothing out
	// basis holds the final fit's standardized rows (n x f) and its
	// statistics, which are full's.
	basis *dualBasis
}

// gramFit is one fit's share of gramShared.
type gramFit struct {
	fold   int   // the fold's index in cvFolds, which seeds the fit
	order  []int // training rows first, then held-out rows
	nFit   int   // how many of order are training rows
	means  []float64
	scales []float64
	k      *linalg.Matrix // nFit x nFit Gram of the standardized training rows
	c      *linalg.Matrix // held-out x training cross-Gram
}

// bytes reports the fit's analytic footprint.
func (gf *gramFit) bytes() int64 {
	return int64(len(gf.order))*8 + int64(len(gf.means)+len(gf.scales))*8 + gf.k.Bytes() + gf.c.Bytes()
}

// bytes reports the analytic footprint of the state the Train drops when it
// returns: the basis is the model's, and Model.Bytes counts it.
func (g *gramShared) bytes() int64 {
	b := int64(len(g.full.order))*8 + g.full.k.Bytes() + g.full.c.Bytes()
	for i := range g.folds {
		b += g.folds[i].bytes()
	}
	return b
}

// allButTarget reports whether term's inputs are every other of f features,
// in order: the only input list the shared Grams describe.
func allButTarget(term Term, f int) bool {
	if len(term.Inputs) != f-1 {
		return false
	}
	for j, c := range term.Inputs {
		if j >= term.Target {
			j++
		}
		if c != j {
			return false
		}
	}
	return true
}

// needsGram reports whether some term of a Train over train takes the Gram
// route: SVR learners, fewer rows than a term has inputs (n < f−1), and a
// real target observed on every row whose inputs are all the other
// features. The rule reads only the input's shape; there is no knob.
func needsGram(train *dataset.Dataset, terms []Term, cfg Config) bool {
	n, f := train.NumSamples(), train.NumFeatures()
	if cfg.Learners.SVR == nil || n < minObserved || n >= f-1 {
		return false
	}
	for _, t := range terms {
		if train.Schema[t.Target].Kind != dataset.Categorical && allButTarget(t, f) && observedRows(train, t.Target) == n {
			return true
		}
	}
	return false
}

// takes reports whether a real term with m observed target rows trains on
// the Gram route; g is nil when no term of the Train does.
func (g *gramShared) takes(term Term, m int) bool {
	return g != nil && m == g.n && allButTarget(term, g.f)
}

// buildGram builds a Train's shared Gram state. Every fit is standardized
// by svrScratch.standardize over all f columns into one n x f buffer, so
// each feature's statistics and cells are bit-identical to those the primal
// route computes for it; the buffer ends up holding the final fit's rows,
// which become the basis. ctx is checked between fits.
func buildGram(ctx context.Context, train *dataset.Dataset, cfg Config) (*gramShared, error) {
	n, f := train.NumSamples(), train.NumFeatures()
	g := &gramShared{n: n, f: f}
	all := make([]int, max(n, f))
	for i := range all {
		all[i] = i
	}
	var ts svrScratch
	ts.resize(n, f, nil)
	var sc trainScratch
	for fi, fold := range cvFolds(cfg, n) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		trIdx := sc.complement(n, fold)
		if len(trIdx) == 0 || len(fold) == 0 {
			continue
		}
		order := append(append(make([]int, 0, n), trIdx...), fold...)
		g.folds = append(g.folds, ts.shareFit(train.X, fi, order, len(trIdx), all[:f]))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g.full = ts.shareFit(train.X, -1, all[:n], n, all[:f])
	g.basis = &dualBasis{z: ts.design, means: g.full.means, scales: g.full.scales}
	return g, nil
}

// shareFit standardizes the rows of order with statistics over the first
// nFit and returns the fit's statistics and Grams (exact-tier Dot, DESIGN.md
// §12). The Gram is symmetric bit for bit: each pair is computed once.
func (ts *svrScratch) shareFit(x *linalg.Matrix, fold int, order []int, nFit int, all []int) gramFit {
	ts.standardize(x, order, nFit, all)
	gf := gramFit{
		fold: fold, order: order, nFit: nFit,
		means: linalg.Clone(ts.means), scales: linalg.Clone(ts.scales),
		k: linalg.NewMatrix(nFit, nFit), c: linalg.NewMatrix(len(order)-nFit, nFit),
	}
	for i := 0; i < nFit; i++ {
		zi := ts.design.Row(i)
		for j := i; j < nFit; j++ {
			v := linalg.Dot(zi, ts.design.Row(j))
			gf.k.Row(i)[j], gf.k.Row(j)[i] = v, v
		}
	}
	for h := 0; h < gf.c.Rows; h++ {
		zh, dst := ts.design.Row(nFit+h), gf.c.Row(h)
		for j := range dst {
			dst[j] = linalg.Dot(zh, ts.design.Row(j))
		}
	}
	return gf
}

// resizeGram sizes the Gram route's scratch for n rows and reports any
// growth to rec.
func (ts *svrScratch) resizeGram(n int, rec *obs.Recorder) {
	old := 0
	if ts.kt != nil {
		old = cap(ts.kt.Data)
	}
	ts.kt = linalg.Resize(ts.kt, n, n)
	if grown := cap(ts.kt.Data) - old; grown > 0 {
		rec.Add(obs.CounterDesignCacheBytes, int64(grown)*8)
	}
	if cap(ts.zt) < n {
		ts.zt = make([]float64, n)
	}
}

// downdate prepares term t's share of fit gf: zt is column t standardized
// with the fit's statistics (the cell standardize writes, bit for bit), and
// kt = K − z_t·z_tᵀ over the training rows is the Gram of the term's own
// standardized inputs, which are every column but t.
func (ts *svrScratch) downdate(x *linalg.Matrix, gf *gramFit, t int) {
	mean, scale := gf.means[t], gf.scales[t]
	zt := ts.zt[:len(gf.order)]
	for i, r := range gf.order {
		v := x.At(r, t)
		if math.IsNaN(v) {
			v = mean
		}
		zt[i] = (v - mean) * scale
	}
	ts.kt = linalg.Resize(ts.kt, gf.nFit, gf.nFit)
	for i := 0; i < gf.nFit; i++ {
		src, dst, zi := gf.k.Row(i), ts.kt.Row(i), zt[i]
		for j := range dst {
			dst[j] = src[j] - zi*zt[j]
		}
	}
}

// trainGramTerm fits one term on the Gram route: the primal route's folds,
// seeds, target handling and solver steps, with each fit's design replaced
// by its downdated Gram. A held-out row h predicts (C·β)_h − z_{h,t}·(z_tᵀβ)
// + b, which is wᵀz_h + b over the term's inputs. The final fit stays in
// dual form: the term keeps β, b and u = (Zᵀβ)_t, an O(n) product, and
// scores through the model's basis (dualReal). y holds the target on every
// training row.
func trainGramTerm(tm *termModel, train *dataset.Dataset, term Term, y []float64, cfg Config, src *rng.Source, sc *trainScratch) {
	g, ts, t := sc.gram, &sc.svr, term.Target
	ts.resizeGram(g.n, cfg.Obs) // svrReservation charges it
	params := cfg.Learners.SVR.WithDefaults()
	params.Bias = true
	fit := func(gf *gramFit, y []float64, seed uint64) (dual svm.SVRDual, yMean, ySD float64) {
		ts.downdate(train.X, gf, t)
		yStd, yMean, ySD := ts.standardizeTarget(y)
		params.Seed = seed
		dual = svm.TrainSVRGram(ts.kt, yStd, params, &ts.ws)
		countFit(cfg.Obs, dual.Iters, params.MaxIter)
		return dual, yMean, ySD
	}
	residuals := sc.residuals[:0]
	for i := range g.folds {
		gf := &g.folds[i]
		yFit := slices.Grow(ts.yFit[:0], gf.nFit)
		for _, r := range gf.order[:gf.nFit] {
			yFit = append(yFit, y[r])
		}
		ts.yFit = yFit
		dual, yMean, ySD := fit(gf, yFit, src.Seed()^uint64(gf.fold+1))
		s := linalg.Dot(ts.zt[:gf.nFit], dual.Beta)
		for h, r := range gf.order[gf.nFit:] {
			pred := linalg.Dot(gf.c.Row(h), dual.Beta) - ts.zt[gf.nFit+h]*s + dual.B
			residuals = append(residuals, y[r]-(pred*ySD+yMean))
		}
	}
	sc.residuals = residuals
	if len(residuals) == 0 {
		residuals = []float64{0}
	}
	tm.realErr = fitRealError(residuals, cfg.KDEError)
	dual, yMean, ySD := fit(&g.full, y, src.Seed())
	var u float64
	for i, b := range dual.Beta {
		u += b * g.basis.z.At(i, t)
	}
	tm.dual = &dualReal{beta: linalg.Clone(dual.Beta), b: dual.B, u: u, yMean: yMean, ySD: ySD}
}

// svrReservation is the analytic scratch a Train's SVR terms hold, charged
// once before the term fan-out: one buffer per worker that can train an SVR
// term, at the widest such term's size (a primal term's m x |inputs|
// design, a Gram term's n x n downdated Gram). A worker's buffers grow to
// the widest term it meets and stay, so the reservation bounds what the
// pool retains, and the accounted peak depends on the worker count only,
// never on which terms overlap in time.
func svrReservation(train *dataset.Dataset, terms []Term, cfg Config, g *gramShared) int64 {
	if cfg.Learners.SVR == nil {
		return 0
	}
	var widest int64
	count := 0
	for _, t := range terms {
		if len(t.Inputs) == 0 || train.Schema[t.Target].Kind == dataset.Categorical {
			continue
		}
		m := observedRows(train, t.Target)
		if m < minObserved {
			continue
		}
		count++
		b := int64(m) * int64(len(t.Inputs)) * 8
		if g.takes(t, m) {
			b = int64(m) * int64(m) * 8
		}
		widest = max(widest, b)
	}
	return int64(min(cfg.Workers, count)) * widest
}

// observedRows counts the training rows whose cell in column c is present.
func observedRows(train *dataset.Dataset, c int) int {
	m := 0
	for i := 0; i < train.NumSamples(); i++ {
		if !dataset.IsMissing(train.X.At(i, c)) {
			m++
		}
	}
	return m
}
