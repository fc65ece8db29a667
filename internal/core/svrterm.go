package core

import (
	"math"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/obs"
	"frac/internal/rng"
	"frac/internal/stats"
	"frac/internal/svm"
)

// The in-core SVR term trainer (DESIGN.md §10) fits every non-marginal real
// term when Learners.SVR is set, whatever the wiring and however many target
// cells are missing. It reads each term's cells straight from the training
// matrix into one per-worker buffer: no gathered copy, no imputed second
// copy, no fold views, and no fresh solver buffers per fit.
// TestInCoreTrainingBitIdentical pins its scores bit for bit to the frozen
// gather-path reference in svrref_test.go, which gathers each term, imputes
// and standardizes a copy, and trains and predicts through the same
// TrainSVR and imputedReal.

// svrScratch is the per-worker state of the in-core trainer. Nothing in it
// outlives a term: the final fit copies out what the model retains.
type svrScratch struct {
	// design holds one fit's standardized rows, training rows first and
	// held-out rows after them; fit views the leading training rows.
	design *linalg.Matrix
	fit    linalg.Matrix
	// order lists the training-set rows behind design's rows.
	order  []int
	means  []float64
	scales []float64
	counts []int
	yStd   []float64
	ws     svm.SVRWorkspace
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

// train standardizes the design for order and fits the SVR on its first
// len(y) rows, with the reference's target handling (MeanVar, MinSigma
// floor, bias on). The model's W aliases the workspace.
func (ts *svrScratch) train(x *linalg.Matrix, order []int, inputs []int, y []float64, params svm.SVRParams, seed uint64) (model *svm.SVR, yMean, ySD float64) {
	nFit := len(y)
	ts.standardize(x, order, nFit, inputs)
	yMean, yVar := stats.MeanVar(y)
	ySD = math.Sqrt(yVar)
	if ySD < stats.MinSigma {
		ySD = 1
	}
	if cap(ts.yStd) < nFit {
		ts.yStd = make([]float64, nFit)
	}
	yStd := ts.yStd[:nFit]
	for i, v := range y {
		yStd[i] = (v - yMean) / ySD
	}
	params.Seed = seed
	params.Bias = true
	ts.fit = linalg.Matrix{Rows: nFit, Cols: len(inputs), Data: ts.design.Data[:nFit*len(inputs)]}
	return svm.TrainSVR(&ts.fit, yStd, params, &ts.ws), yMean, ySD
}

// trainSVRTerm fits one non-marginal real term in core: cross-validated
// residuals for the error model over the same folds the reference route
// draws, then the final fit over every observed row. rows are the observed
// training rows of the target and y their target values.
func trainSVRTerm(tm *termModel, train *dataset.Dataset, term Term, rows []int, y []float64, cfg Config, src *rng.Source, sc *trainScratch) {
	ts := &sc.svr
	m := len(rows)
	// Every fit writes all m rows (training plus held-out), so one resize
	// serves the whole term.
	ts.resize(m, len(term.Inputs), cfg.Obs)
	if cfg.Tracker != nil {
		cfg.Tracker.Alloc(ts.design.Bytes())
		defer cfg.Tracker.Release(ts.design.Bytes())
	}
	params := *cfg.Learners.SVR
	folds := dataset.KFold(m, cfg.CVFolds, src)
	residuals := sc.residuals[:0]
	for fi, fold := range folds {
		trIdx := sc.complement(m, fold)
		if len(trIdx) == 0 || len(fold) == 0 {
			continue
		}
		order := ts.order[:0]
		for _, i := range trIdx {
			order = append(order, rows[i])
		}
		for _, h := range fold {
			order = append(order, rows[h])
		}
		ts.order = order
		sc.foldYF = subFloatsInto(sc.foldYF, y, trIdx)
		model, yMean, ySD := ts.train(train.X, order, term.Inputs, sc.foldYF, params, src.Seed()^uint64(fi+1))
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
	model, yMean, ySD := ts.train(train.X, rows, term.Inputs, y, params, src.Seed())
	tm.real = &imputedReal{
		model:  &svm.SVR{W: linalg.Clone(model.W), B: model.B, Iters: model.Iters},
		means:  linalg.Clone(ts.means),
		scales: linalg.Clone(ts.scales),
		yMean:  yMean,
		ySD:    ySD,
	}
}
