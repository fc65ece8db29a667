package tree

import (
	"math"
	"math/bits"
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
// branch. It is FitClassifier on a private design of x, over every row and
// the identity column map.
func TrainClassifier(x *linalg.Matrix, inputs dataset.Schema, y []int, arity int, params Params) *Classifier {
	d, cols, rows := privateDesign(x, inputs)
	return FitClassifier(d, cols, inputs, rows, y, arity, params, new(Scratch))
}

// TrainRegressor fits a variance-minimizing regression tree. Every observed
// categorical input value must be a label in [0, Arity). It is FitRegressor
// on a private design of x, over every row and the identity column map.
func TrainRegressor(x *linalg.Matrix, inputs dataset.Schema, y []float64, params Params) *Regressor {
	d, cols, rows := privateDesign(x, inputs)
	return FitRegressor(d, cols, inputs, rows, y, params, new(Scratch))
}

// privateDesign returns the design of x, the identity column map and the
// list of every row.
func privateDesign(x *linalg.Matrix, inputs dataset.Schema) (d *Design, cols, rows []int) {
	all := make([]int, max(x.Rows, x.Cols))
	for i := range all {
		all[i] = i
	}
	return NewDesign(x, inputs), all[:x.Cols], all[:x.Rows]
}

// fit says where one fit reads its inputs and targets; exactly one of
// catY/realY is set. Rows are design rows, and catY and realY are indexed
// by them.
type fit struct {
	d      *Design
	cols   []int // input j's design column
	inputs dataset.Schema
	params Params

	catY  []int
	arity int // classification arity
	realY []float64
}

// Scratch is the working memory of tree fits: the fit's row list, the
// partition buffer, the threshold scan's sorter, the count tables and the
// label masks. Every buffer is sized once per fit and reused by every node
// and feature, and fits that share a Scratch (one at a time) reuse them
// all, so after warm-up a fit allocates only the nodes it returns. The zero
// value is ready.
type Scratch struct {
	fit

	// rows holds each row index once. A node owns a contiguous segment of
	// it, in the order the node's rows were routed to it, and partitions
	// that segment in place between its children.
	rows []int
	part []int // partition staging, one entry per row

	// sorter holds the observed rows of one threshold scan.
	sorter byValue

	// Classification scratch: a categorical scan's joint (category, label)
	// count table, flat arityJ×arity, per-label counts, and one label mask
	// per class over the design's rows (bitsets says whether the fit uses
	// them: a classification fit with categorical inputs).
	joint              []int
	total, left, right []int
	plogp              []float64 // plogpTable()
	masks              []uint64
	bitsets            bool

	// Categorical-scan per-category totals: row counts, and for regression
	// target sums and sums of squares.
	perCat    []int
	sums, sqs []float64

	nodes []node
}

// grow sizes the scratch for the fit s.fit describes over rows, grows its
// tree in s.nodes and returns the tree with a copy of them.
func (s *Scratch) grow(rows []int) tree {
	maxArity, hasCat := 0, false
	for _, f := range s.inputs {
		if f.Kind == dataset.Categorical {
			maxArity, hasCat = max(maxArity, f.Arity), true
		}
	}
	s.rows = append(s.rows[:0], rows...)
	s.part = resize(s.part, len(rows))
	if cap(s.sorter.idx) < len(rows) {
		s.sorter.idx = make([]int, 0, len(rows))
	}
	s.perCat = resize(s.perCat, maxArity)
	s.bitsets = s.catY != nil && hasCat
	if s.catY != nil {
		s.joint = resize(s.joint, maxArity*s.arity)
		s.total, s.left, s.right = resize(s.total, s.arity), resize(s.left, s.arity), resize(s.right, s.arity)
		s.plogp = plogpTable()
	} else {
		s.sums, s.sqs = resize(s.sums, maxArity), resize(s.sqs, maxArity)
	}
	if s.bitsets {
		s.masks = resize(s.masks, s.arity*s.d.words)
	}
	s.nodes = s.nodes[:0]
	s.d.codes.grow(s)
	return tree{nodes: append([]node(nil), s.nodes...), inputs: s.inputs}
}

// resize returns buf with length n, reallocated only when it is too short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// builder grows one tree over a design whose codes have type C.
type builder[C codeWord] struct {
	*Scratch
	codes codeCols[C]
}

func (cc codeCols[C]) grow(s *Scratch) {
	b := builder[C]{Scratch: s, codes: cc}
	b.build(0, len(s.rows), 0)
}

// column returns the codes of categorical input j, indexed by row.
func (b *builder[C]) column(j int) codeCols[C] {
	off := b.d.cols[b.cols[j]].off
	return b.codes[off : off+b.d.n]
}

// bitsetRows is the fewest rows at which a classification node counts its
// categorical splits with popcounts over label masks rather than with a
// loop over its rows' codes. Both loops give the same integers; the
// benchmark that chose it is in DESIGN.md §7.
const bitsetRows = 32

// plogpRows bounds the row counts whose entropies read plogpTable: the
// table holds t+1 entries for every t up to it (259 KiB), so its size does
// not grow with the training set. Entropies over more rows call
// stats.EntropyFromCounts; on the paper's SNP data sets (at most 317
// training rows) they are under 1% of the calls.
const plogpRows = 256

// plogpTable returns p·log(p) for p = c/t at index t(t+1)/2 + c, for
// 0 <= c <= t <= plogpRows, and 0 at c = 0. p and the product are computed
// as stats.EntropyFromCounts computes them, so subtracting an entry gives
// the bits of its h -= p*math.Log(p). The table is built once per process
// and only read after, so concurrent fits share it.
var plogpTable = sync.OnceValue(func() []float64 {
	tab := make([]float64, (plogpRows+1)*(plogpRows+2)/2)
	for t := 1; t <= plogpRows; t++ {
		for c := 1; c <= t; c++ {
			p := float64(c) / float64(t)
			tab[t*(t+1)/2+c] = p * math.Log(p)
		}
	}
	return tab
})

// entropy is stats.EntropyFromCounts(counts) for counts summing to t, to
// the bit: each term is the table's rounded product, subtracted in the
// same order, and a zero count subtracts 0.
func (s *Scratch) entropy(counts []int, t int) float64 {
	if t > plogpRows {
		return stats.EntropyFromCounts(counts)
	}
	tab := s.plogp[t*(t+1)/2 : (t+1)*(t+2)/2]
	h := 0.0
	for _, c := range counts {
		h -= tab[c]
	}
	return h
}

// labelCounts counts the labels of rows into s.total.
func (s *Scratch) labelCounts(rows []int) []int {
	counts := s.total
	clear(counts)
	for _, r := range rows {
		counts[s.catY[r]]++
	}
	return counts
}

// setMasks writes one mask per class over the design's rows: bit r of
// class y's mask is 1 when row r is one of rows and has label y.
func (s *Scratch) setMasks(rows []int) {
	words := s.d.words
	clear(s.masks)
	for _, r := range rows {
		s.masks[s.catY[r]*words+r>>6] |= 1 << (uint(r) & 63)
	}
}

// countBits fills joint, flat arity×s.arity, with the (category, label)
// counts of the node whose masks setMasks wrote, and perCat and total with
// its row sums and column sums; it returns their total. Each count is the
// popcount of the category's rows within the label's mask.
func (s *Scratch) countBits(joint, perCat, total []int, col *designCol) (nObs int) {
	words, arity := s.d.words, s.arity
	clear(total)
	for c := range perCat {
		set := s.d.bits[col.bits+c*words : col.bits+(c+1)*words]
		nc := 0
		for y := range total {
			mask := s.masks[y*words : (y+1)*words]
			mask = mask[:len(set)]
			k := 0
			for w, v := range set {
				k += bits.OnesCount64(v & mask[w])
			}
			joint[c*arity+y] = k
			total[y] += k
			nc += k
		}
		perCat[c] = nc
		nObs += nc
	}
	return nObs
}

// impurity returns the node impurity of rows: entropy (classification) or
// variance (regression), both in "per-sample" units.
func (s *Scratch) impurity(rows []int) float64 {
	if s.catY != nil {
		return s.entropy(s.labelCounts(rows), len(rows))
	}
	var sum, ss float64
	for _, r := range rows {
		v := s.realY[r]
		sum += v
		ss += v * v
	}
	n := float64(len(rows))
	mean := sum / n
	return ss/n - mean*mean // population variance
}

// leaf appends a leaf node for rows and returns its index.
func (s *Scratch) leaf(rows []int) int32 {
	var nd node
	nd.feature = -1
	nd.category = -1
	if s.catY != nil {
		best, bestC := 0, -1
		for c, n := range s.labelCounts(rows) {
			if n > bestC {
				best, bestC = c, n
			}
		}
		nd.label = best
	} else {
		var sum float64
		for _, r := range rows {
			sum += s.realY[r]
		}
		if len(rows) > 0 {
			nd.value = sum / float64(len(rows))
		}
	}
	s.nodes = append(s.nodes, nd)
	return int32(len(s.nodes) - 1)
}

// split describes a candidate split of a node.
type split struct {
	feature   int
	threshold float64
	category  int // -1 for threshold splits
	gain      float64
}

// build recursively grows the subtree over the rows in b.rows[lo:hi],
// returning its root index.
func (b *builder[C]) build(lo, hi, depth int) int32 {
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
	if b.bitsets && len(rows) >= bitsetRows {
		b.setMasks(rows)
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

// Branches of a row under a split.
const (
	goLeft = iota
	goRight
	goMissing
)

// partition reorders rows for split s so the left child's rows come first,
// returning their count. Missing rows join the side with more observed rows,
// ties going left. Each child keeps its rows in their order here, observed
// rows before missing ones, because a regression tree's sums run in that
// order. When either child would hold fewer than MinLeaf rows, partition
// reports !ok and leaves rows as they were, so the node's leaf sums them in
// their original order.
func (b *builder[C]) partition(rows []int, s split) (nLeft int, missingLeft, ok bool) {
	var codes codeCols[C]
	var vals []float64
	if s.category >= 0 {
		codes = b.column(s.feature)
	} else {
		vals = b.d.realCol(b.cols[s.feature])
	}
	branch := func(r int) int {
		if s.category >= 0 {
			switch c := codes[r]; {
			case c == ^C(0):
				return goMissing
			case int(c) == s.category:
				return goLeft
			}
			return goRight
		}
		switch v := vals[r]; {
		case dataset.IsMissing(v):
			return goMissing
		case v < s.threshold:
			return goLeft
		}
		return goRight
	}
	var count [3]int
	for _, r := range rows {
		count[branch(r)]++
	}
	nl, nr, nm := count[goLeft], count[goRight], count[goMissing]
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
	next := [3]int{goLeft: 0, goRight: nl, goMissing: nl + nr}
	if missingLeft {
		next[goMissing], next[goRight] = nl, nl+nm
	}
	part := b.part[:len(rows)]
	for _, r := range rows {
		br := branch(r)
		part[next[br]] = r
		next[br]++
	}
	copy(rows, part)
	return nLeft, missingLeft, true
}

// bestSplit scans every input feature for the impurity-minimizing split of
// rows, whose impurity is parentImp. Gains are computed over the rows with
// observed values and scaled by the observed fraction (the C4.5
// missing-value correction), so features that are mostly missing cannot win
// on a handful of rows.
func (b *builder[C]) bestSplit(rows []int, parentImp float64) (best split, found bool) {
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

func (s *Scratch) bestThresholdSplit(rows []int, j int, parentImp float64) (split, bool) {
	col := s.d.realCol(s.cols[j])
	obs := s.sorter.idx[:0]
	for _, r := range rows {
		if !dataset.IsMissing(col[r]) {
			obs = append(obs, r)
		}
	}
	if len(obs) < 2*s.params.MinLeaf {
		return split{}, false
	}
	s.sorter.idx, s.sorter.col = obs, col
	sort.Sort(&s.sorter)
	obsFrac := float64(len(obs)) / float64(len(rows))

	var bestGain float64 = math.Inf(-1)
	var bestThr float64
	found := false

	if s.catY != nil {
		total, leftC, rightC := s.total, s.left, s.right
		clear(total)
		clear(leftC)
		for _, r := range obs {
			total[s.catY[r]]++
		}
		nl := 0
		for i := 0; i < len(obs)-1; i++ {
			leftC[s.catY[obs[i]]]++
			nl++
			vi, vn := col[obs[i]], col[obs[i+1]]
			if vi == vn {
				continue
			}
			nr := len(obs) - nl
			if nl < s.params.MinLeaf || nr < s.params.MinLeaf {
				continue
			}
			hl := s.entropy(leftC, nl)
			for c := range total {
				rightC[c] = total[c] - leftC[c]
			}
			hr := s.entropy(rightC, nr)
			imp := (float64(nl)*hl + float64(nr)*hr) / float64(len(obs))
			gain := (parentImp - imp) * obsFrac
			if gain > bestGain {
				bestGain, bestThr, found = gain, (vi+vn)/2, true
			}
		}
	} else {
		var totalS, totalSS float64
		for _, r := range obs {
			v := s.realY[r]
			totalS += v
			totalSS += v * v
		}
		var ls, lss float64
		nl := 0
		for i := 0; i < len(obs)-1; i++ {
			v := s.realY[obs[i]]
			ls += v
			lss += v * v
			nl++
			vi, vn := col[obs[i]], col[obs[i+1]]
			if vi == vn {
				continue
			}
			nr := len(obs) - nl
			if nl < s.params.MinLeaf || nr < s.params.MinLeaf {
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

func (b *builder[C]) bestCategoricalSplit(rows []int, j int, parentImp float64) (split, bool) {
	arityJ := b.inputs[j].Arity
	perCat := b.perCat[:arityJ]
	nObs := 0

	var bestGain float64 = math.Inf(-1)
	bestCat := -1

	if b.catY != nil {
		// Count the joint table, with popcounts over the node's label masks
		// or with a loop over its rows. The per-category, per-label and
		// observed totals are integer sums of it, so any order of
		// deriving them gives the same numbers.
		arity := b.arity
		joint := b.joint[:arityJ*arity]
		total, rightC := b.total, b.right
		if len(rows) >= bitsetRows {
			nObs = b.countBits(joint, perCat, total, &b.d.cols[b.cols[j]])
		} else {
			codes := b.column(j)
			clear(joint)
			for _, r := range rows {
				if c := codes[r]; c != ^C(0) {
					joint[int(c)*arity+b.catY[r]]++
				}
			}
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
		codes := b.column(j)
		for _, r := range rows {
			code := codes[r]
			if code == ^C(0) {
				continue
			}
			c := int(code)
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
