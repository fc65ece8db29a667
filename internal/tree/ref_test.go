package tree

import (
	"fmt"
	"math"
	"sort"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/stats"
)

// The frozen reference builder: the straightforward induction code the
// production builder in build.go replaced, kept verbatim (only renamed) so
// TestBuilderMatchesReference can pin the production trees to it node for
// node and bit for bit. It allocates per node and per candidate feature and
// is several times slower; never call it outside tests, and never edit its
// arithmetic — any change here silently moves the contract it pins.

// refTrainClassifier fits an entropy-minimizing classification tree. x is
// n x d; inputs describes the d input columns; y holds labels in [0, arity).
// Rows whose value for a candidate split feature is missing do not
// participate in that split's scoring and are routed down the majority
// branch.
func refTrainClassifier(x *linalg.Matrix, inputs dataset.Schema, y []int, arity int, params Params) *Classifier {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("tree: %d samples but %d labels", x.Rows, len(y)))
	}
	if len(inputs) != x.Cols {
		panic(fmt.Sprintf("tree: %d input features but schema has %d", x.Cols, len(inputs)))
	}
	if arity < 2 {
		panic(fmt.Sprintf("tree: classifier arity %d", arity))
	}
	b := &refBuilder{
		x: x, inputs: inputs, params: params.withDefaults(),
		catY: y, arity: arity,
	}
	rows := refAllRows(x.Rows)
	root := b.build(rows, 0)
	_ = root
	return &Classifier{tree: tree{nodes: b.nodes}, Arity: arity}
}

// refTrainRegressor fits a variance-minimizing regression tree.
func refTrainRegressor(x *linalg.Matrix, inputs dataset.Schema, y []float64, params Params) *Regressor {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("tree: %d samples but %d targets", x.Rows, len(y)))
	}
	if len(inputs) != x.Cols {
		panic(fmt.Sprintf("tree: %d input features but schema has %d", x.Cols, len(inputs)))
	}
	b := &refBuilder{
		x: x, inputs: inputs, params: params.withDefaults(),
		realY: y,
	}
	rows := refAllRows(x.Rows)
	b.build(rows, 0)
	return &Regressor{tree: tree{nodes: b.nodes}}
}

func refAllRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// refBuilder holds induction state; exactly one of catY/realY is set.
type refBuilder struct {
	x      *linalg.Matrix
	inputs dataset.Schema
	params Params
	nodes  []node

	catY  []int
	arity int // classification arity

	realY []float64
}

func (b *refBuilder) isClassification() bool { return b.catY != nil }

// impurity returns the node impurity of rows: entropy (classification) or
// variance (regression), both in "per-sample" units.
func (b *refBuilder) impurity(rows []int) float64 {
	if b.isClassification() {
		counts := make([]int, b.arity)
		for _, r := range rows {
			counts[b.catY[r]]++
		}
		return stats.EntropyFromCounts(counts)
	}
	var s, ss float64
	for _, r := range rows {
		v := b.realY[r]
		s += v
		ss += v * v
	}
	n := float64(len(rows))
	mean := s / n
	return ss/n - mean*mean // population variance
}

// leaf appends a leaf node for rows and returns its index.
func (b *refBuilder) leaf(rows []int) int32 {
	var nd node
	nd.feature = -1
	nd.category = -1
	if b.isClassification() {
		counts := make([]int, b.arity)
		for _, r := range rows {
			counts[b.catY[r]]++
		}
		best, bestC := 0, -1
		for c, n := range counts {
			if n > bestC {
				best, bestC = c, n
			}
		}
		nd.label = best
	} else {
		var s float64
		for _, r := range rows {
			s += b.realY[r]
		}
		if len(rows) > 0 {
			nd.value = s / float64(len(rows))
		}
	}
	b.nodes = append(b.nodes, nd)
	return int32(len(b.nodes) - 1)
}

// refSplit describes a candidate split of a node.
type refSplit struct {
	feature   int
	threshold float64
	category  int // -1 for threshold splits
	gain      float64
	// goesLeft reports the branch of an observed value.
	goesLeft func(v float64) bool
}

// build recursively grows the subtree over rows, returning its root index.
func (b *refBuilder) build(rows []int, depth int) int32 {
	if len(rows) == 0 {
		// Degenerate: empty training set yields a zero-payload leaf.
		return b.leaf(rows)
	}
	if depth >= b.params.MaxDepth || len(rows) < 2*b.params.MinLeaf || b.impurity(rows) <= 0 {
		return b.leaf(rows)
	}
	best := b.bestSplit(rows)
	if best == nil || best.gain < b.params.MinGain {
		return b.leaf(rows)
	}
	var left, right, missing []int
	for _, r := range rows {
		v := b.x.At(r, best.feature)
		switch {
		case dataset.IsMissing(v):
			missing = append(missing, r)
		case best.goesLeft(v):
			left = append(left, r)
		default:
			right = append(right, r)
		}
	}
	missingLeft := len(left) >= len(right)
	if missingLeft {
		left = append(left, missing...)
	} else {
		right = append(right, missing...)
	}
	if len(left) < b.params.MinLeaf || len(right) < b.params.MinLeaf {
		return b.leaf(rows)
	}
	// Reserve this node's slot before recursing so children land after it.
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{
		feature:     best.feature,
		threshold:   best.threshold,
		category:    best.category,
		missingLeft: missingLeft,
	})
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.nodes[idx].left = l
	b.nodes[idx].right = r
	return idx
}

// bestSplit scans every input feature for the impurity-minimizing split.
// Gains are computed over the rows with observed values and scaled by the
// observed fraction (the C4.5 missing-value correction), so features that
// are mostly missing cannot win on a handful of rows.
func (b *refBuilder) bestSplit(rows []int) *refSplit {
	var best *refSplit
	parentImp := b.impurity(rows)
	for j := 0; j < b.x.Cols; j++ {
		var cand *refSplit
		if b.inputs[j].Kind == dataset.Categorical {
			cand = b.bestCategoricalSplit(rows, j, parentImp)
		} else {
			cand = b.bestThresholdSplit(rows, j, parentImp)
		}
		if cand != nil && (best == nil || cand.gain > best.gain) {
			best = cand
		}
	}
	return best
}

func (b *refBuilder) observed(rows []int, j int) []int {
	obs := make([]int, 0, len(rows))
	for _, r := range rows {
		if !dataset.IsMissing(b.x.At(r, j)) {
			obs = append(obs, r)
		}
	}
	return obs
}

func (b *refBuilder) bestThresholdSplit(rows []int, j int, parentImp float64) *refSplit {
	obs := b.observed(rows, j)
	if len(obs) < 2*b.params.MinLeaf {
		return nil
	}
	sort.Slice(obs, func(a, c int) bool { return b.x.At(obs[a], j) < b.x.At(obs[c], j) })
	obsFrac := float64(len(obs)) / float64(len(rows))

	var bestGain float64 = math.Inf(-1)
	var bestThr float64
	found := false

	if b.isClassification() {
		total := make([]int, b.arity)
		for _, r := range obs {
			total[b.catY[r]]++
		}
		leftC := make([]int, b.arity)
		nl := 0
		for i := 0; i < len(obs)-1; i++ {
			leftC[b.catY[obs[i]]]++
			nl++
			vi, vn := b.x.At(obs[i], j), b.x.At(obs[i+1], j)
			if vi == vn {
				continue
			}
			nr := len(obs) - nl
			if nl < b.params.MinLeaf || nr < b.params.MinLeaf {
				continue
			}
			hl := stats.EntropyFromCounts(leftC)
			rightC := make([]int, b.arity)
			for c := range total {
				rightC[c] = total[c] - leftC[c]
			}
			hr := stats.EntropyFromCounts(rightC)
			imp := (float64(nl)*hl + float64(nr)*hr) / float64(len(obs))
			gain := (parentImp - imp) * obsFrac
			if gain > bestGain {
				bestGain, bestThr, found = gain, (vi+vn)/2, true
			}
		}
	} else {
		var totalS, totalSS float64
		for _, r := range obs {
			v := b.realY[r]
			totalS += v
			totalSS += v * v
		}
		var ls, lss float64
		nl := 0
		for i := 0; i < len(obs)-1; i++ {
			v := b.realY[obs[i]]
			ls += v
			lss += v * v
			nl++
			vi, vn := b.x.At(obs[i], j), b.x.At(obs[i+1], j)
			if vi == vn {
				continue
			}
			nr := len(obs) - nl
			if nl < b.params.MinLeaf || nr < b.params.MinLeaf {
				continue
			}
			imp := (refChildVar(ls, lss, nl)*float64(nl) + refChildVar(totalS-ls, totalSS-lss, nr)*float64(nr)) / float64(len(obs))
			gain := (parentImp - imp) * obsFrac
			if gain > bestGain {
				bestGain, bestThr, found = gain, (vi+vn)/2, true
			}
		}
	}
	if !found {
		return nil
	}
	thr := bestThr
	return &refSplit{
		feature: j, threshold: thr, category: -1, gain: bestGain,
		goesLeft: func(v float64) bool { return v < thr },
	}
}

func refChildVar(s, ss float64, n int) float64 {
	fn := float64(n)
	mean := s / fn
	v := ss/fn - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

func (b *refBuilder) bestCategoricalSplit(rows []int, j int, parentImp float64) *refSplit {
	obs := b.observed(rows, j)
	if len(obs) < 2*b.params.MinLeaf {
		return nil
	}
	arityJ := b.inputs[j].Arity
	obsFrac := float64(len(obs)) / float64(len(rows))

	var bestGain float64 = math.Inf(-1)
	bestCat := -1

	if b.isClassification() {
		// counts[c][y] over observed rows
		counts := make([][]int, arityJ)
		for c := range counts {
			counts[c] = make([]int, b.arity)
		}
		total := make([]int, b.arity)
		perCat := make([]int, arityJ)
		for _, r := range obs {
			c := int(b.x.At(r, j))
			counts[c][b.catY[r]]++
			perCat[c]++
			total[b.catY[r]]++
		}
		for c := 0; c < arityJ; c++ {
			nl := perCat[c]
			nr := len(obs) - nl
			if nl < b.params.MinLeaf || nr < b.params.MinLeaf {
				continue
			}
			rightC := make([]int, b.arity)
			for y := range total {
				rightC[y] = total[y] - counts[c][y]
			}
			imp := (float64(nl)*stats.EntropyFromCounts(counts[c]) + float64(nr)*stats.EntropyFromCounts(rightC)) / float64(len(obs))
			gain := (parentImp - imp) * obsFrac
			if gain > bestGain {
				bestGain, bestCat = gain, c
			}
		}
	} else {
		sums := make([]float64, arityJ)
		sqs := make([]float64, arityJ)
		perCat := make([]int, arityJ)
		var totalS, totalSS float64
		for _, r := range obs {
			c := int(b.x.At(r, j))
			v := b.realY[r]
			sums[c] += v
			sqs[c] += v * v
			perCat[c]++
			totalS += v
			totalSS += v * v
		}
		for c := 0; c < arityJ; c++ {
			nl := perCat[c]
			nr := len(obs) - nl
			if nl < b.params.MinLeaf || nr < b.params.MinLeaf {
				continue
			}
			imp := (refChildVar(sums[c], sqs[c], nl)*float64(nl) + refChildVar(totalS-sums[c], totalSS-sqs[c], nr)*float64(nr)) / float64(len(obs))
			gain := (parentImp - imp) * obsFrac
			if gain > bestGain {
				bestGain, bestCat = gain, c
			}
		}
	}
	if bestCat < 0 {
		return nil
	}
	cat := bestCat
	return &refSplit{
		feature: j, category: cat, threshold: 0, gain: bestGain,
		goesLeft: func(v float64) bool { return int(v) == cat },
	}
}
