package core

import (
	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/tree"
)

// TreeCatLearner is the gather-route reference for Learners.Tree: a
// CatLearnerFunc that fits tree.TrainClassifier on the gathered term and
// its fold views. Production categorical terms train through Learners.Tree
// (treeterm.go); TestTreeRouteBitIdentical pins them to this one bit for
// bit, so do not change it.
func TreeCatLearner(params tree.Params) CatLearnerFunc {
	return func(x *linalg.Matrix, inputs dataset.Schema, y []int, arity int, seed uint64) CatPredictor {
		return tree.TrainClassifier(x, inputs, y, arity, params)
	}
}
