package core

import (
	"sync"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/obs"
	"frac/internal/rng"
	"frac/internal/stats"
)

// This file is the frozen gather-and-copy loop the product trained custom,
// regression-tree and mixed-input tree terms with before every tree term
// moved to the shared design. It copies a term's observed rows into a
// matrix, copies a fold view of that matrix per CV fold, and hands both to
// Learners.Real or Learners.Cat; the final predictor, fit on the gathered
// rows, is then re-expressed over the model's columns (overModelColumns),
// which a model's predictors read. The references set it as Learners.gather
// (referenceLearners, treeReference), and TestInCoreTrainingBitIdentical and
// TestTreeRouteBitIdentical pin the product's routes to it bit for bit, so
// do not change it.

// gatherTerm trains a learned term through the gather loop: rows are the
// target's observed training rows, and sc.yI or sc.yF their targets.
func gatherTerm(tm termModel, train *dataset.Dataset, term Term, rows []int, cfg Config, src *rng.Source, sc *trainScratch) termModel {
	cfg.Obs.Add(obs.CounterTermsGathered, 1)
	gs := gatherPool.Get().(*gatherScratch)
	defer gatherPool.Put(gs)
	inputSchema := train.Schema.Select(term.Inputs)
	x := gs.gather(train, rows, term.Inputs)
	if cfg.Tracker != nil {
		cfg.Tracker.Alloc(x.Bytes())
		defer cfg.Tracker.Release(x.Bytes())
	}
	folds := cvFolds(cfg, len(rows))
	if tm.isCat {
		y := sc.yI
		conf := stats.NewConfusion(tm.arity)
		for fi, fold := range folds {
			trIdx := sc.complement(len(rows), fold)
			if len(trIdx) == 0 || len(fold) == 0 {
				continue
			}
			xTr := gs.foldView(x, trIdx)
			gs.foldYI = subInto(gs.foldYI, y, trIdx)
			p := cfg.Learners.Cat(xTr, inputSchema, gs.foldYI, tm.arity, src.Seed()^uint64(fi+1))
			for _, h := range fold {
				conf.Add(y[h], predictLabelRow(p, x.Row(h)))
			}
		}
		tm.catErr = conf
		tm.cat = overModelColumns(cfg.Learners.Cat(x, inputSchema, y, tm.arity, src.Seed()), term.Inputs)
		return tm
	}
	y := sc.yF
	residuals := sc.residuals[:0]
	for fi, fold := range folds {
		trIdx := sc.complement(len(rows), fold)
		if len(trIdx) == 0 || len(fold) == 0 {
			continue
		}
		xTr := gs.foldView(x, trIdx)
		gs.foldYF = subInto(gs.foldYF, y, trIdx)
		p := cfg.Learners.Real(xTr, inputSchema, gs.foldYF, src.Seed()^uint64(fi+1))
		for _, h := range fold {
			residuals = append(residuals, y[h]-predictRow(p, x.Row(h)))
		}
	}
	sc.residuals = residuals
	if len(residuals) == 0 {
		residuals = []float64{0}
	}
	tm.realErr = fitRealError(residuals, cfg.KDEError)
	tm.real = overModelColumns(cfg.Learners.Real(x, inputSchema, y, src.Seed()), term.Inputs)
	return tm
}

// overModelColumns re-expresses p, fit on rows gathered through inputs,
// over the model's columns: an SVR reads its input j from column inputs[j],
// and a tree's nodes are renamed through inputs, as the decoder renames a
// legacy tree's.
func overModelColumns[P any](p P, inputs []int) P {
	switch v := any(p).(type) {
	case *imputedReal:
		v.inputs = inputs
	case interface{ Rename(cols []int) }:
		v.Rename(inputs)
	}
	return p
}

// gatherScratch holds the gather loop's copies: the gathered term matrix,
// the fold view and the fold targets. Learners must not retain them.
type gatherScratch struct {
	x, foldX *linalg.Matrix
	foldYF   []float64
	foldYI   []int
}

var gatherPool = sync.Pool{New: func() any { return new(gatherScratch) }}

// gather copies the input columns of the selected rows into the scratch
// matrix, preserving NaN missing markers.
func (gs *gatherScratch) gather(train *dataset.Dataset, rows, inputs []int) *linalg.Matrix {
	gs.x = linalg.Resize(gs.x, len(rows), len(inputs))
	for i, r := range rows {
		src := train.Sample(r)
		dst := gs.x.Row(i)
		for j, c := range inputs {
			dst[j] = src[c]
		}
	}
	return gs.x
}

// foldView copies the selected rows of the gathered matrix into the
// fold-local training matrix.
func (gs *gatherScratch) foldView(x *linalg.Matrix, rows []int) *linalg.Matrix {
	gs.foldX = linalg.Resize(gs.foldX, len(rows), x.Cols)
	for i, r := range rows {
		copy(gs.foldX.Row(i), x.Row(r))
	}
	return gs.foldX
}

// subInto returns y[idx[i]] for each i in dst, reallocated only when short.
func subInto[T any](dst, y []T, idx []int) []T {
	if cap(dst) < len(idx) {
		dst = make([]T, len(idx))
	}
	dst = dst[:len(idx)]
	for i, r := range idx {
		dst[i] = y[r]
	}
	return dst
}
