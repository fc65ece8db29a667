package core

import (
	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/obs"
	"frac/internal/stats"
	"frac/internal/tree"
)

// The tree route (DESIGN.md §10): with Learners.Tree set, a categorical
// term whose inputs are all categorical trains on the Train's shared
// categorical design, a tree.Design that TrainCtx builds once from the
// training set and every worker reads. Each CV fold fit and the final fit
// take the term's observed design rows as their row list and term.Inputs as
// their column map, and the held-out rows are classified by walking the
// fold's tree over the design, so such a term gathers and copies nothing.
// Any other categorical term under Learners.Tree fits tree.TrainClassifier
// on its gathered rows, and TestTreeRouteBitIdentical pins both to the
// gather reference, Learners{Cat: TreeCatLearner(p)}, bit for bit.

// needsDesign reports whether some term of a Train over train takes the
// tree route, so that TrainCtx builds the shared design only then.
func needsDesign(train *dataset.Dataset, terms []Term, cfg Config) bool {
	if cfg.Learners.Tree == nil {
		return false
	}
	for _, t := range terms {
		if !treeShaped(train.Schema, t) {
			continue
		}
		observed := 0
		for i := 0; i < train.NumSamples(); i++ {
			if !dataset.IsMissing(train.X.At(i, t.Target)) {
				observed++
			}
		}
		if observed >= minObserved {
			return true
		}
	}
	return false
}

// treeShaped reports whether term has a categorical target and at least
// one input, all of them categorical: the terms the shared design covers.
func treeShaped(schema dataset.Schema, term Term) bool {
	if schema[term.Target].Kind != dataset.Categorical || len(term.Inputs) == 0 {
		return false
	}
	for _, c := range term.Inputs {
		if schema[c].Kind != dataset.Categorical {
			return false
		}
	}
	return true
}

// fitCat fits one categorical predictor off the shared design: Learners.Tree's
// tree on the gathered rows when it is set, Learners.Cat's otherwise.
func fitCat(cfg Config, x *linalg.Matrix, inputs dataset.Schema, y []int, arity int, seed uint64) CatPredictor {
	if p := cfg.Learners.Tree; p != nil {
		cfg.Obs.Add(obs.CounterTreeFits, 1)
		return tree.TrainClassifier(x, inputs, y, arity, *p)
	}
	return cfg.Learners.Cat(x, inputs, y, arity, seed)
}

// trainTreeTerm fits a term on the tree route: rows are the target's
// observed training rows and y their labels, conf is the term's empty
// confusion matrix.
func trainTreeTerm(tm *termModel, train *dataset.Dataset, term Term, rows, y []int, conf *stats.Confusion, cfg Config, sc *trainScratch) {
	d, p := sc.design, *cfg.Learners.Tree
	labels := sc.labels
	if cap(labels) < d.Rows() {
		labels = make([]int, d.Rows())
	}
	labels = labels[:d.Rows()]
	for i, r := range rows {
		labels[r] = y[i]
	}
	sc.labels = labels
	inputs := train.Schema.Select(term.Inputs)
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
		c := tree.FitClassifier(d, term.Inputs, inputs, fitRows, labels, tm.arity, p, &sc.tree)
		cfg.Obs.Add(obs.CounterTreeFits, 1)
		for _, h := range fold {
			conf.Add(y[h], c.PredictDesignRow(d, term.Inputs, rows[h]))
		}
	}
	tm.catErr = conf
	tm.cat = tree.FitClassifier(d, term.Inputs, inputs, rows, labels, tm.arity, p, &sc.tree)
	cfg.Obs.Add(obs.CounterTreeFits, 1)
}
