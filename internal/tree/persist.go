package tree

import (
	"fmt"

	"frac/internal/binio"
	"frac/internal/dataset"
)

// Serialization of trained trees (model persistence). A tree's stream is
// its node count and its nodes, whose features are columns of the model's
// schema. Streams of model schema version 3 and earlier put a block of
// features before the node count, one per input of the tree's term, and
// their node features index those inputs; the decoders read them given the
// term's inputs as the legacy column map (nil for a current stream).

func (t *tree) encode(w *binio.Writer) {
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

// decodeTree reads a tree over the columns of schema. A non-nil legacy
// says the stream predates model schema version 4: its input block must
// match schema at legacy in count, kind and arity, and its node features,
// which index the inputs, are renamed through legacy.
func decodeTree(r *binio.Reader, schema dataset.Schema, legacy []int) (tree, error) {
	var t tree
	width := len(schema)
	if legacy != nil {
		inputs := dataset.DecodeSchema(r)
		if err := r.Err(); err != nil {
			return t, err
		}
		if len(inputs) != len(legacy) {
			return t, fmt.Errorf("tree: %d inputs for a %d-input term", len(inputs), len(legacy))
		}
		for j, f := range inputs {
			if want := schema[legacy[j]]; f.Kind != want.Kind || f.Arity != want.Arity {
				return t, fmt.Errorf("tree: input %d is %v of arity %d, but model column %d is %v of arity %d",
					j, f.Kind, f.Arity, legacy[j], want.Kind, want.Arity)
			}
		}
		width = len(legacy)
	}
	n := r.Int()
	if err := r.Err(); err != nil {
		return t, err
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
		if nd.feature >= width {
			return t, fmt.Errorf("tree: node %d feature %d out of %d columns", i, nd.feature, width)
		}
		// The builder appends children after their parent, so edges always
		// point forward. Enforcing that here makes every decoded tree walk
		// terminate: a corrupt stream cannot smuggle in a cycle.
		if nd.feature >= 0 && (int(nd.left) <= i || int(nd.right) <= i || int(nd.left) >= n || int(nd.right) >= n) {
			return t, fmt.Errorf("tree: node %d child out of range", i)
		}
	}
	if legacy != nil {
		t.Rename(legacy)
	}
	return t, nil
}

// Rename makes a tree grown on gathered rows read the rows they were
// gathered from: a node that split on column j splits on column cols[j]
// after it. Every split feature must be below len(cols). The legacy
// decoders rename with it.
func (t *tree) Rename(cols []int) {
	for i := range t.nodes {
		if nd := &t.nodes[i]; nd.feature >= 0 {
			nd.feature = cols[nd.feature]
		}
	}
}

// Encode serializes the classifier: its arity and its nodes.
func (c *Classifier) Encode(w *binio.Writer) {
	w.Int(c.Arity)
	c.encode(w)
}

// DecodeClassifier reads a classifier that Encode wrote for a model over
// schema, whose every split feature must be a column of schema. legacy is
// nil, or for a stream of model schema version 3 or earlier the term's
// inputs (see decodeTree): a stream whose input block disagrees with schema
// at legacy in count, kind or arity is an error.
func DecodeClassifier(r *binio.Reader, schema dataset.Schema, legacy []int) (*Classifier, error) {
	arity := r.Int()
	t, err := decodeTree(r, schema, legacy)
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

// Encode serializes the regressor: its nodes.
func (rg *Regressor) Encode(w *binio.Writer) {
	rg.encode(w)
}

// DecodeRegressor reads a regressor that Encode wrote, checked as
// DecodeClassifier checks a classifier.
func DecodeRegressor(r *binio.Reader, schema dataset.Schema, legacy []int) (*Regressor, error) {
	t, err := decodeTree(r, schema, legacy)
	if err != nil {
		return nil, err
	}
	return &Regressor{tree: t}, nil
}
