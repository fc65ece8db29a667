// Package tree implements entropy-minimizing classification trees and
// variance-minimizing regression trees from scratch, substituting for the
// Waffles decision trees the paper uses on discrete SNP data (§III.B).
//
// Trees accept mixed input schemas: real inputs split on thresholds,
// categorical inputs split on single-category membership. Missing input
// values are routed down the branch that received the majority of the
// node's training samples, so both training and prediction tolerate the
// undefined values FRaC's formula allows.
package tree

import (
	"frac/internal/dataset"
	"frac/internal/linalg"
)

// Params configures tree induction.
type Params struct {
	// MaxDepth bounds tree depth. <= 0 selects 12.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf. <= 0 selects 2.
	MinLeaf int
	// MinGain is the minimum impurity reduction to accept a split.
	// <= 0 selects 1e-9.
	MinGain float64
}

func (p Params) withDefaults() Params {
	if p.MaxDepth <= 0 {
		p.MaxDepth = 12
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 2
	}
	if p.MinGain <= 0 {
		p.MinGain = 1e-9
	}
	return p
}

// node is one tree node in the flattened node array.
type node struct {
	// feature is the split feature, a column of the rows the tree reads;
	// -1 marks a leaf.
	feature int
	// threshold applies to real splits: x < threshold goes left.
	threshold float64
	// category applies to categorical splits (category >= 0):
	// x == category goes left.
	category int
	// missingLeft routes missing values.
	missingLeft bool
	left, right int32
	// leaf payloads
	label int     // classification majority class
	value float64 // regression mean
}

// tree is the shared walk structure. A node's feature is a column of the
// rows the tree reads: for a FRaC term, a column of the model's rows, so the
// tree keeps nothing but its nodes.
type tree struct {
	nodes []node
}

// walk descends from the root to the leaf that row lands in.
func (t *tree) walk(row []float64) *node {
	cur := &t.nodes[0]
	for cur.feature >= 0 {
		v := row[cur.feature]
		var goLeft bool
		switch {
		case dataset.IsMissing(v):
			goLeft = cur.missingLeft
		case cur.category >= 0:
			goLeft = int(v) == cur.category
		default:
			goLeft = v < cur.threshold
		}
		if goLeft {
			cur = &t.nodes[cur.left]
		} else {
			cur = &t.nodes[cur.right]
		}
	}
	return cur
}

// NumNodes reports the node count (leaves included).
func (t *tree) NumNodes() int { return len(t.nodes) }

// Depth reports the maximum root-to-leaf depth (0 for a lone leaf).
func (t *tree) Depth() int {
	var rec func(i int32, d int) int
	rec = func(i int32, d int) int {
		n := &t.nodes[i]
		if n.feature < 0 {
			return d
		}
		l := rec(n.left, d+1)
		r := rec(n.right, d+1)
		if l > r {
			return l
		}
		return r
	}
	return rec(0, 0)
}

// Bytes reports the analytic footprint of the node array.
func (t *tree) Bytes() int64 { return int64(len(t.nodes)) * 64 }

// Classifier is a trained classification tree over labels [0, Arity).
type Classifier struct {
	tree
	Arity int
}

// PredictLabelBatch writes to out[i] the majority class of the leaf row i
// of x lands in, for every row of x. The iterative walk needs no traversal
// stack, so the batch performs zero allocations.
func (c *Classifier) PredictLabelBatch(x *linalg.Matrix, out []int) {
	for i := 0; i < x.Rows; i++ {
		out[i] = c.walk(x.Row(i)).label
	}
}

// Regressor is a trained regression tree.
type Regressor struct {
	tree
}

// PredictBatch writes to out[i] the mean target of the leaf row i of x
// lands in, for every row of x, with zero allocations.
func (r *Regressor) PredictBatch(x *linalg.Matrix, out []float64) {
	for i := 0; i < x.Rows; i++ {
		out[i] = r.walk(x.Row(i)).value
	}
}
