package core

import (
	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/stats"
	"frac/internal/tree"
)

// The tree route (DESIGN.md §10): the terms planTerms routes to the tree
// train on the Train's shared design, a tree.Design of the training set's
// columns that TrainCtx builds once and every worker reads. Each CV fold
// fit and the final fit take the term's observed design rows as their row
// list and term.Inputs as their candidate columns, so their nodes name
// model columns, and a fold's held-out rows are predicted by walking its
// tree over their training-set rows, as scoring walks a scored row: a tree
// term gathers and copies nothing. TestTreeRouteBitIdentical pins the route
// to the frozen gather-and-copy reference (gatherref_test.go) bit for bit.

// trainTreeTerm fits a learned term on the tree route and leaves a real
// target's held-out residuals in sc.residuals. rows are the target's
// observed training rows, and sc.yI (categorical target) or sc.yF (real
// target) their targets.
func trainTreeTerm(tm *termModel, train *dataset.Dataset, term Term, rows []int, cfg Config, sc *trainScratch) {
	d, p, cols := sc.design, *cfg.Learners.Tree, term.Inputs
	if tm.isCat {
		sc.labels = byDesignRow(sc.labels, d.Rows(), rows, sc.yI)
		tm.catErr = stats.NewConfusion(tm.arity)
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
				tm.catErr.Add(sc.yI[h], c.PredictRow(train.X.Row(rows[h])))
			}
			continue
		}
		r := tree.FitRegressor(d, cols, fitRows, sc.targets, p, &sc.tree)
		for _, h := range fold {
			residuals = append(residuals, sc.yF[h]-r.PredictRow(train.X.Row(rows[h])))
		}
	}
	sc.residuals = residuals
	cfg.Obs.Add(obs.CounterTreeFits, 1)
	if tm.isCat {
		tm.cat = tree.FitClassifier(d, cols, rows, sc.labels, tm.arity, p, &sc.tree)
		return
	}
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
