package core

import (
	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/tree"
)

// treeReference returns the gather reference for l, whose Tree is set: the
// terms l trains as trees go through the gather loop (gatherref_test.go)
// to TreeCatLearner and, when l.SVR is nil, TreeRealLearner, and l's SVR
// terms train as l trains them. TestTreeRouteBitIdentical pins the tree
// route to it bit for bit.
func treeReference(l Learners) Learners {
	ref := Learners{SVR: l.SVR, Tree: l.Tree, Cat: TreeCatLearner(*l.Tree), gather: gatherTerm}
	if l.SVR == nil {
		ref.Real = TreeRealLearner(*l.Tree)
	}
	return ref
}

// TreeCatLearner is the gather-route reference classification tree: a
// CatLearnerFunc that fits tree.TrainClassifier on the gathered term and
// its fold views. Do not change it.
func TreeCatLearner(params tree.Params) CatLearnerFunc {
	return func(x *linalg.Matrix, inputs dataset.Schema, y []int, arity int, seed uint64) CatPredictor {
		return tree.TrainClassifier(x, inputs, y, arity, params)
	}
}

// TreeRealLearner is the gather-route reference regression tree: a
// RealLearnerFunc that fits tree.TrainRegressor on the gathered term and
// its fold views. Do not change it.
func TreeRealLearner(params tree.Params) RealLearnerFunc {
	return func(x *linalg.Matrix, inputs dataset.Schema, y []float64, seed uint64) RealPredictor {
		return tree.TrainRegressor(x, inputs, y, params)
	}
}
