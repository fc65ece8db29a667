package core

import (
	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/stats"
	"frac/internal/tree"
)

// The tree route (DESIGN.md §10): the terms planTerms routes to the tree
// train on the Train's shared design, a tree.Design of the training set's
// columns that TrainCtx builds once and every worker reads. Each fit of the
// term's schedule takes the term's observed design rows at its training
// positions as its row list and term.Inputs as its candidate columns, so
// its nodes name model columns, and a CV fit's held-out rows are predicted
// by walking its tree over their training-set rows, as scoring walks a
// scored row: a tree term gathers and copies nothing.
// TestTreeRouteBitIdentical pins the route to the frozen gather-and-copy
// reference (gatherref_test.go) bit for bit.

// trainTreeTerm fits a learned term on the tree route, one fit per entry of
// its fit schedule, keeps the final fit, and leaves a real target's
// held-out residuals in sc.residuals. rows are the target's observed
// training rows, and sc.yI (categorical target) or sc.yF (real target)
// their targets.
func trainTreeTerm(tm *termModel, train *dataset.Dataset, term Term, rows []int, fits []cvFit, cfg Config, sc *trainScratch) {
	d, p, cols := sc.design, *cfg.Learners.Tree, term.Inputs
	if tm.isCat {
		sc.labels = byDesignRow(sc.labels, d.Rows(), rows, sc.yI)
		tm.catErr = stats.NewConfusion(tm.arity)
	} else {
		sc.targets = byDesignRow(sc.targets, d.Rows(), rows, sc.yF)
	}
	residuals := sc.residuals[:0]
	for _, fit := range fits {
		fitRows := sc.fitRows[:0]
		for _, i := range fit.order[:fit.nFit] {
			fitRows = append(fitRows, rows[i])
		}
		sc.fitRows = fitRows
		held := fit.order[fit.nFit:]
		cfg.Obs.Add(obs.CounterTreeFits, 1)
		if tm.isCat {
			c := tree.FitClassifier(d, cols, fitRows, sc.labels, tm.arity, p, &sc.tree)
			for _, h := range held {
				tm.catErr.Add(sc.yI[h], c.PredictRow(train.X.Row(rows[h])))
			}
			tm.cat = c
			continue
		}
		r := tree.FitRegressor(d, cols, fitRows, sc.targets, p, &sc.tree)
		for _, h := range held {
			residuals = append(residuals, sc.yF[h]-r.PredictRow(train.X.Row(rows[h])))
		}
		tm.real = r
	}
	sc.residuals = residuals
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

// treeReservation is the analytic count-table scratch a Train's
// classification trees hold on design d, charged with the design before
// the term fan-out: one set of tables per worker that can train such a
// term, at the widest term's size (tree.Design.CountTableBytes over its
// inputs). A worker's Scratch keeps the largest tables it needed, so, as
// with svrReservation, the accounted peak depends on the worker count only.
func treeReservation(train *dataset.Dataset, d *tree.Design, terms []Term, plan []termPlan, cfg Config) int64 {
	var widest int64
	count := 0
	for i, p := range plan {
		target := train.Schema[terms[i].Target]
		if p.route != routeTree || target.Kind != dataset.Categorical {
			continue
		}
		if b := d.CountTableBytes(terms[i].Inputs, target.Arity, *cfg.Learners.Tree); b > 0 {
			count++
			widest = max(widest, b)
		}
	}
	return int64(min(cfg.Workers, count)) * widest
}
