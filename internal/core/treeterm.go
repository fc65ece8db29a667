package core

import (
	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/stats"
	"frac/internal/tree"
)

// The tree route (DESIGN.md §10): with Learners.Tree set, every learned
// categorical term, and every learned real term when Learners.SVR is nil,
// trains on the Train's shared design, a tree.Design of the training set's
// columns that TrainCtx builds once and every worker reads. Each CV fold
// fit and the final fit take the term's observed design rows as their row
// list and term.Inputs as their candidate columns, so their nodes name
// model columns, and the held-out rows are predicted by walking the fold's
// tree over the design: a tree term gathers and copies nothing. TestTreeRouteBitIdentical pins the route to
// the frozen gather-and-copy reference (gatherref_test.go) bit for bit.

// takesTree is the tree route's rule: a learned term (one with inputs and
// at least minObserved observed targets) trains as a tree under l when
// l.Tree is set and its target is categorical or l.SVR is nil.
func takesTree(schema dataset.Schema, term Term, l Learners) bool {
	return l.Tree != nil && (schema[term.Target].Kind == dataset.Categorical || l.SVR == nil)
}

// needsDesign reports whether some term of a Train over train trains on
// the shared design, so that TrainCtx builds the design only then.
func needsDesign(train *dataset.Dataset, terms []Term, cfg Config) bool {
	if cfg.Learners.gather != nil {
		return false
	}
	for _, t := range terms {
		if len(t.Inputs) > 0 && takesTree(train.Schema, t, cfg.Learners) && observedRows(train, t.Target) >= minObserved {
			return true
		}
	}
	return false
}

// trainTreeTerm fits a learned term on the tree route. rows are the
// target's observed training rows, and sc.yI (categorical target) or sc.yF
// (real target) their targets.
func trainTreeTerm(tm *termModel, term Term, rows []int, cfg Config, sc *trainScratch) {
	d, p, cols := sc.design, *cfg.Learners.Tree, term.Inputs
	var conf *stats.Confusion
	if tm.isCat {
		sc.labels = byDesignRow(sc.labels, d.Rows(), rows, sc.yI)
		conf = stats.NewConfusion(tm.arity)
	} else {
		sc.targets = byDesignRow(sc.targets, d.Rows(), rows, sc.yF)
	}
	residuals := sc.residuals[:0]
	for _, fold := range cvFolds(cfg, len(rows)) {
		trIdx := sc.complement(len(rows), fold)
		if len(trIdx) == 0 || len(fold) == 0 {
			continue
		}
		fitRows := sc.fitRows[:0]
		for _, i := range trIdx {
			fitRows = append(fitRows, rows[i])
		}
		sc.fitRows = fitRows
		cfg.Obs.Add(obs.CounterTreeFits, 1)
		if tm.isCat {
			c := tree.FitClassifier(d, cols, fitRows, sc.labels, tm.arity, p, &sc.tree)
			for _, h := range fold {
				conf.Add(sc.yI[h], c.PredictDesignRow(d, rows[h]))
			}
			continue
		}
		r := tree.FitRegressor(d, cols, fitRows, sc.targets, p, &sc.tree)
		for _, h := range fold {
			residuals = append(residuals, sc.yF[h]-r.PredictDesignRow(d, rows[h]))
		}
	}
	cfg.Obs.Add(obs.CounterTreeFits, 1)
	if tm.isCat {
		tm.catErr = conf
		tm.cat = tree.FitClassifier(d, cols, rows, sc.labels, tm.arity, p, &sc.tree)
		return
	}
	sc.residuals = residuals
	if len(residuals) == 0 {
		residuals = []float64{0}
	}
	tm.realErr = fitRealError(residuals, cfg.KDEError)
	tm.real = tree.FitRegressor(d, cols, rows, sc.targets, p, &sc.tree)
}

// byDesignRow lays y, the targets of rows, out by design row in buf, which
// it returns resized to n: buf[rows[i]] = y[i]. Other entries are stale.
func byDesignRow[T any](buf []T, n int, rows []int, y []T) []T {
	if cap(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	for i, r := range rows {
		buf[r] = y[i]
	}
	return buf
}
