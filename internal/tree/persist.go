package tree

import (
	"fmt"

	"frac/internal/binio"
	"frac/internal/dataset"
)

// Serialization of trained trees (model persistence). A tree keeps no
// schema: its node features index the term's inputs, input j being column
// cols[j] of the model's schema. The stream still carries the inputs' block
// of features, written from the model's schema and checked against it on
// decode, so artifacts keep their layout.

func (t *tree) encode(w *binio.Writer, schema dataset.Schema, cols []int) {
	dataset.EncodeSelection(w, schema, cols)
	w.Int(len(t.nodes))
	for i := range t.nodes {
		n := &t.nodes[i]
		w.Int(n.feature)
		w.F64(n.threshold)
		w.Int(n.category)
		w.Bool(n.missingLeft)
		w.Int(int(n.left))
		w.Int(int(n.right))
		w.Int(n.label)
		w.F64(n.value)
	}
}

func decodeTree(r *binio.Reader, schema dataset.Schema, cols []int) (tree, error) {
	var t tree
	inputs := dataset.DecodeSchema(r)
	n := r.Int()
	if err := r.Err(); err != nil {
		return t, err
	}
	if len(inputs) != len(cols) {
		return t, fmt.Errorf("tree: %d inputs for a %d-input term", len(inputs), len(cols))
	}
	for j, f := range inputs {
		if want := schema[cols[j]]; f.Kind != want.Kind || f.Arity != want.Arity {
			return t, fmt.Errorf("tree: input %d is %v of arity %d, but model column %d is %v of arity %d",
				j, f.Kind, f.Arity, cols[j], want.Kind, want.Arity)
		}
	}
	if n < 1 || n > binio.MaxSliceLen {
		return t, fmt.Errorf("tree: implausible node count %d", n)
	}
	t.nodes = make([]node, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		var nd node
		nd.feature = r.Int()
		nd.threshold = r.F64()
		nd.category = r.Int()
		nd.missingLeft = r.Bool()
		nd.left = int32(r.Int())
		nd.right = int32(r.Int())
		nd.label = r.Int()
		nd.value = r.F64()
		if err := r.Err(); err != nil {
			return t, err
		}
		t.nodes = append(t.nodes, nd)
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.feature >= len(cols) {
			return t, fmt.Errorf("tree: node %d feature %d out of %d inputs", i, nd.feature, len(cols))
		}
		// The builder appends children after their parent, so edges always
		// point forward. Enforcing that here makes every decoded tree walk
		// terminate: a corrupt stream cannot smuggle in a cycle.
		if nd.feature >= 0 && (int(nd.left) <= i || int(nd.right) <= i || int(nd.left) >= n || int(nd.right) >= n) {
			return t, fmt.Errorf("tree: node %d child out of range", i)
		}
	}
	return t, nil
}

// Encode serializes the classifier of a term whose input j is column
// cols[j] of schema.
func (c *Classifier) Encode(w *binio.Writer, schema dataset.Schema, cols []int) {
	w.Int(c.Arity)
	c.encode(w, schema, cols)
}

// DecodeClassifier reads a classifier that Encode wrote for a term whose
// input j is column cols[j] of schema. A stream whose input block disagrees
// with schema at cols in count, kind or arity is an error.
func DecodeClassifier(r *binio.Reader, schema dataset.Schema, cols []int) (*Classifier, error) {
	arity := r.Int()
	t, err := decodeTree(r, schema, cols)
	if err != nil {
		return nil, err
	}
	if arity < 2 {
		return nil, fmt.Errorf("tree: decoded arity %d", arity)
	}
	for i := range t.nodes {
		if nd := &t.nodes[i]; nd.feature < 0 && (nd.label < 0 || nd.label >= arity) {
			return nil, fmt.Errorf("tree: leaf %d label %d out of [0,%d)", i, nd.label, arity)
		}
	}
	return &Classifier{tree: t, Arity: arity}, nil
}

// Encode serializes the regressor of a term whose input j is column cols[j]
// of schema.
func (rg *Regressor) Encode(w *binio.Writer, schema dataset.Schema, cols []int) {
	rg.encode(w, schema, cols)
}

// DecodeRegressor reads a regressor that Encode wrote, checked as
// DecodeClassifier checks a classifier.
func DecodeRegressor(r *binio.Reader, schema dataset.Schema, cols []int) (*Regressor, error) {
	t, err := decodeTree(r, schema, cols)
	if err != nil {
		return nil, err
	}
	return &Regressor{tree: t}, nil
}
