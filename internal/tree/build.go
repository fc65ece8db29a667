package tree

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/stats"
)

// TrainClassifier fits an entropy-minimizing classification tree. x is
// n x d; inputs describes the d input columns; y holds labels in [0, arity),
// and every observed categorical input value must be a label in [0, Arity).
// Rows whose value for a candidate split feature is missing do not
// participate in that split's scoring and are routed down the majority
// branch.
func TrainClassifier(x *linalg.Matrix, inputs dataset.Schema, y []int, arity int, params Params) *Classifier {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("tree: %d samples but %d labels", x.Rows, len(y)))
	}
	if len(inputs) != x.Cols {
		panic(fmt.Sprintf("tree: %d input features but schema has %d", x.Cols, len(inputs)))
	}
	if arity < 2 {
		panic(fmt.Sprintf("tree: classifier arity %d", arity))
	}
	b := newBuilder(x, inputs, params, arity)
	b.catY = y
	b.build(0, x.Rows, 0)
	return &Classifier{tree: tree{nodes: b.nodes, inputs: inputs}, Arity: arity}
}

// TrainRegressor fits a variance-minimizing regression tree. Every observed
// categorical input value must be a label in [0, Arity).
func TrainRegressor(x *linalg.Matrix, inputs dataset.Schema, y []float64, params Params) *Regressor {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("tree: %d samples but %d targets", x.Rows, len(y)))
	}
	if len(inputs) != x.Cols {
		panic(fmt.Sprintf("tree: %d input features but schema has %d", x.Cols, len(inputs)))
	}
	b := newBuilder(x, inputs, params, 0)
	b.realY = y
	b.build(0, x.Rows, 0)
	return &Regressor{tree: tree{nodes: b.nodes, inputs: inputs}}
}

// builder holds induction state; exactly one of catY/realY is set. Every
// buffer is allocated once per fit and reused by every node and feature, so
// a fit allocates only these and the nodes it returns.
type builder struct {
	n      int
	cols   []float64 // x copied column-major: column j is cols[j*n : (j+1)*n]
	inputs dataset.Schema
	params Params
	nodes  []node

	catY  []int
	arity int // classification arity
	realY []float64

	// rows holds each row index once. A node owns a contiguous segment of
	// it, in the order the node's rows were routed to it, and partitions
	// that segment in place between its children.
	rows []int
	part []int // partition staging, one entry per row

	// sorter holds the observed rows of one threshold scan.
	sorter byValue

	// Classification scratch: a categorical scan's joint (category, label)
	// count table, flat arityJ×arity, and per-label counts.
	joint              []int
	total, left, right []int
	logs               []float64 // logTable()

	// Categorical-scan per-category totals: row counts, and for regression
	// target sums and sums of squares.
	perCat    []int
	sums, sqs []float64
}

func newBuilder(x *linalg.Matrix, inputs dataset.Schema, params Params, arity int) *builder {
	maxArity := 0
	for _, f := range inputs {
		if f.Kind == dataset.Categorical && f.Arity > maxArity {
			maxArity = f.Arity
		}
	}
	n := x.Rows
	cols := make([]float64, n*x.Cols)
	for i := 0; i < n; i++ {
		for j, v := range x.Row(i) {
			cols[j*n+i] = v
		}
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	b := &builder{
		n: n, cols: cols, inputs: inputs, params: params.withDefaults(),
		arity: arity, rows: rows, part: make([]int, n),
		sorter: byValue{idx: make([]int, 0, n)},
		perCat: make([]int, maxArity),
	}
	if arity > 0 {
		b.joint = make([]int, maxArity*arity)
		b.total, b.left, b.right = make([]int, arity), make([]int, arity), make([]int, arity)
		b.logs = logTable()
	} else {
		b.sums, b.sqs = make([]float64, maxArity), make([]float64, maxArity)
	}
	return b
}

func (b *builder) column(j int) []float64 { return b.cols[j*b.n : (j+1)*b.n] }

// logTableRows bounds the row counts whose entropies read logTable: the table
// holds t(t+1)/2 entries for every t up to it (257 KiB), so its size does not
// grow with the training set. Entropies over more rows call math.Log; on the
// paper's SNP data sets (at most 317 training rows) they are under 1% of the
// calls, while math.Log made up about a third of a fit's time.
const logTableRows = 256

// logTable returns math.Log(float64(c)/float64(t)) at index t(t-1)/2 + c-1
// for 1 <= c <= t <= logTableRows. It is built once per process and only
// read after, so concurrent fits share it.
var logTable = sync.OnceValue(func() []float64 {
	tab := make([]float64, logTableRows*(logTableRows+1)/2)
	for t := 1; t <= logTableRows; t++ {
		for c := 1; c <= t; c++ {
			tab[t*(t-1)/2+c-1] = math.Log(float64(c) / float64(t))
		}
	}
	return tab
})

// entropy is stats.EntropyFromCounts(counts) for counts summing to t. It
// reads log(p) from the log table but keeps the expression h -= p*log(p) and
// its order, so the result is the same to the bit.
func (b *builder) entropy(counts []int, t int) float64 {
	if t > logTableRows {
		return stats.EntropyFromCounts(counts)
	}
	logs := b.logs[t*(t-1)/2 : t*(t+1)/2] // logs[c-1] = log(c/t)
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(t)
		h -= p * logs[c-1]
	}
	return h
}

// labelCounts counts the labels of rows into b.total.
func (b *builder) labelCounts(rows []int) []int {
	counts := b.total
	clear(counts)
	for _, r := range rows {
		counts[b.catY[r]]++
	}
	return counts
}

// impurity returns the node impurity of rows: entropy (classification) or
// variance (regression), both in "per-sample" units.
func (b *builder) impurity(rows []int) float64 {
	if b.catY != nil {
		return b.entropy(b.labelCounts(rows), len(rows))
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
func (b *builder) leaf(rows []int) int32 {
	var nd node
	nd.feature = -1
	nd.category = -1
	if b.catY != nil {
		best, bestC := 0, -1
		for c, n := range b.labelCounts(rows) {
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

// split describes a candidate split of a node.
type split struct {
	feature   int
	threshold float64
	category  int // -1 for threshold splits
	gain      float64
}

// goesLeft reports the branch of an observed value.
func (s split) goesLeft(v float64) bool {
	if s.category >= 0 {
		return int(v) == s.category
	}
	return v < s.threshold
}

// build recursively grows the subtree over the rows in b.rows[lo:hi],
// returning its root index.
func (b *builder) build(lo, hi, depth int) int32 {
	rows := b.rows[lo:hi]
	if len(rows) == 0 {
		// Degenerate: empty training set yields a zero-payload leaf.
		return b.leaf(rows)
	}
	if depth >= b.params.MaxDepth || len(rows) < 2*b.params.MinLeaf {
		return b.leaf(rows)
	}
	imp := b.impurity(rows)
	if imp <= 0 {
		return b.leaf(rows)
	}
	best, ok := b.bestSplit(rows, imp)
	if !ok || best.gain < b.params.MinGain {
		return b.leaf(rows)
	}
	nLeft, missingLeft, ok := b.partition(rows, best)
	if !ok {
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
	l := b.build(lo, lo+nLeft, depth+1)
	r := b.build(lo+nLeft, hi, depth+1)
	b.nodes[idx].left = l
	b.nodes[idx].right = r
	return idx
}

// partition reorders rows for split s so the left child's rows come first,
// returning their count. Missing rows join the side with more observed rows,
// ties going left. Each child keeps its rows in their order here, observed
// rows before missing ones, because a regression tree's sums run in that
// order. When either child would hold fewer than MinLeaf rows, partition
// reports !ok and leaves rows as they were, so the node's leaf sums them in
// their original order.
func (b *builder) partition(rows []int, s split) (nLeft int, missingLeft, ok bool) {
	col := b.column(s.feature)
	var nl, nr, nm int
	for _, r := range rows {
		switch v := col[r]; {
		case dataset.IsMissing(v):
			nm++
		case s.goesLeft(v):
			nl++
		default:
			nr++
		}
	}
	missingLeft = nl >= nr
	nLeft, nRight := nl, nr+nm
	if missingLeft {
		nLeft, nRight = nl+nm, nr
	}
	if nLeft < b.params.MinLeaf || nRight < b.params.MinLeaf {
		return 0, false, false
	}
	// Stage the new order, [left | missing | right] or [left | right |
	// missing], then copy it back over the segment.
	iL, iR, iM := 0, nl, nl+nr
	if missingLeft {
		iM, iR = nl, nl+nm
	}
	part := b.part[:len(rows)]
	for _, r := range rows {
		switch v := col[r]; {
		case dataset.IsMissing(v):
			part[iM] = r
			iM++
		case s.goesLeft(v):
			part[iL] = r
			iL++
		default:
			part[iR] = r
			iR++
		}
	}
	copy(rows, part)
	return nLeft, missingLeft, true
}

// bestSplit scans every input feature for the impurity-minimizing split of
// rows, whose impurity is parentImp. Gains are computed over the rows with
// observed values and scaled by the observed fraction (the C4.5
// missing-value correction), so features that are mostly missing cannot win
// on a handful of rows.
func (b *builder) bestSplit(rows []int, parentImp float64) (best split, found bool) {
	for j, f := range b.inputs {
		var cand split
		var ok bool
		if f.Kind == dataset.Categorical {
			cand, ok = b.bestCategoricalSplit(rows, j, parentImp)
		} else {
			cand, ok = b.bestThresholdSplit(rows, j, parentImp)
		}
		if ok && (!found || cand.gain > best.gain) {
			best, found = cand, true
		}
	}
	return best, found
}

// byValue orders row indices by their value in one column. sort.Sort on it
// runs the same pdqsort as sort.Slice with the equivalent less function, so
// tied values keep the permutation regression sums were pinned with.
type byValue struct {
	idx []int
	col []float64
}

func (s *byValue) Len() int           { return len(s.idx) }
func (s *byValue) Less(a, c int) bool { return s.col[s.idx[a]] < s.col[s.idx[c]] }
func (s *byValue) Swap(a, c int)      { s.idx[a], s.idx[c] = s.idx[c], s.idx[a] }

func (b *builder) bestThresholdSplit(rows []int, j int, parentImp float64) (split, bool) {
	col := b.column(j)
	obs := b.sorter.idx[:0]
	for _, r := range rows {
		if !dataset.IsMissing(col[r]) {
			obs = append(obs, r)
		}
	}
	if len(obs) < 2*b.params.MinLeaf {
		return split{}, false
	}
	b.sorter.idx, b.sorter.col = obs, col
	sort.Sort(&b.sorter)
	obsFrac := float64(len(obs)) / float64(len(rows))

	var bestGain float64 = math.Inf(-1)
	var bestThr float64
	found := false

	if b.catY != nil {
		total, leftC, rightC := b.total, b.left, b.right
		clear(total)
		clear(leftC)
		for _, r := range obs {
			total[b.catY[r]]++
		}
		nl := 0
		for i := 0; i < len(obs)-1; i++ {
			leftC[b.catY[obs[i]]]++
			nl++
			vi, vn := col[obs[i]], col[obs[i+1]]
			if vi == vn {
				continue
			}
			nr := len(obs) - nl
			if nl < b.params.MinLeaf || nr < b.params.MinLeaf {
				continue
			}
			hl := b.entropy(leftC, nl)
			for c := range total {
				rightC[c] = total[c] - leftC[c]
			}
			hr := b.entropy(rightC, nr)
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
			vi, vn := col[obs[i]], col[obs[i+1]]
			if vi == vn {
				continue
			}
			nr := len(obs) - nl
			if nl < b.params.MinLeaf || nr < b.params.MinLeaf {
				continue
			}
			imp := (childVar(ls, lss, nl)*float64(nl) + childVar(totalS-ls, totalSS-lss, nr)*float64(nr)) / float64(len(obs))
			gain := (parentImp - imp) * obsFrac
			if gain > bestGain {
				bestGain, bestThr, found = gain, (vi+vn)/2, true
			}
		}
	}
	return split{feature: j, threshold: bestThr, category: -1, gain: bestGain}, found
}

func childVar(s, ss float64, n int) float64 {
	fn := float64(n)
	mean := s / fn
	v := ss/fn - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

func (b *builder) bestCategoricalSplit(rows []int, j int, parentImp float64) (split, bool) {
	col := b.column(j)
	arityJ := b.inputs[j].Arity
	perCat := b.perCat[:arityJ]
	nObs := 0

	var bestGain float64 = math.Inf(-1)
	bestCat := -1

	if b.catY != nil {
		// Count only the joint table in the row scan; the per-category,
		// per-label and observed totals are integer sums of it, so deriving
		// them afterwards gives the same numbers.
		arity := b.arity
		joint := b.joint[:arityJ*arity]
		clear(joint)
		for _, r := range rows {
			v := col[r]
			if !dataset.IsMissing(v) {
				joint[int(v)*arity+b.catY[r]]++
			}
		}
		total, rightC := b.total, b.right
		clear(total)
		for c := range perCat {
			nc := 0
			for y, k := range joint[c*arity : (c+1)*arity] {
				nc += k
				total[y] += k
			}
			perCat[c] = nc
			nObs += nc
		}
		if nObs < 2*b.params.MinLeaf {
			return split{}, false
		}
		obsFrac := float64(nObs) / float64(len(rows))
		for c := 0; c < arityJ; c++ {
			nl := perCat[c]
			nr := nObs - nl
			if nl < b.params.MinLeaf || nr < b.params.MinLeaf {
				continue
			}
			counts := joint[c*arity : (c+1)*arity]
			for y := range total {
				rightC[y] = total[y] - counts[y]
			}
			imp := (float64(nl)*b.entropy(counts, nl) + float64(nr)*b.entropy(rightC, nr)) / float64(nObs)
			gain := (parentImp - imp) * obsFrac
			if gain > bestGain {
				bestGain, bestCat = gain, c
			}
		}
	} else {
		// Regression sums accumulate in row order: their rounding is part
		// of the result.
		sums, sqs := b.sums[:arityJ], b.sqs[:arityJ]
		clear(sums)
		clear(sqs)
		clear(perCat)
		var totalS, totalSS float64
		for _, r := range rows {
			x := col[r]
			if dataset.IsMissing(x) {
				continue
			}
			c := int(x)
			v := b.realY[r]
			sums[c] += v
			sqs[c] += v * v
			perCat[c]++
			totalS += v
			totalSS += v * v
			nObs++
		}
		if nObs < 2*b.params.MinLeaf {
			return split{}, false
		}
		obsFrac := float64(nObs) / float64(len(rows))
		for c := 0; c < arityJ; c++ {
			nl := perCat[c]
			nr := nObs - nl
			if nl < b.params.MinLeaf || nr < b.params.MinLeaf {
				continue
			}
			imp := (childVar(sums[c], sqs[c], nl)*float64(nl) + childVar(totalS-sums[c], totalSS-sqs[c], nr)*float64(nr)) / float64(nObs)
			gain := (parentImp - imp) * obsFrac
			if gain > bestGain {
				bestGain, bestCat = gain, c
			}
		}
	}
	return split{feature: j, category: bestCat, gain: bestGain}, bestCat >= 0
}
