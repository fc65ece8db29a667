package tree

import (
	"math"
	"slices"
	"testing"

	"frac/internal/dataset"
	"frac/internal/rng"
)

// tableStats tallies the count tables TestCountTablesMatchFreshCounts
// checked: derived by subtraction, and counted directly under bitsetRows
// rows and at or over it.
type tableStats struct {
	derived, small, large int
}

// TestCountTablesMatchFreshCounts pins the count tables the builder keeps
// (countChildren, count) to a fresh count: over 600 seeded problems drawn
// from newDesignProblem with all-categorical and mixed inputs (missing
// cells, input arities 2–5 plus one of 256–300, MinLeaf 1–3) and target
// arities up to 300, a walk that grows each tree as build does checks, at
// every node it scans, every categorical candidate's block of the node's
// table against the joint counts and totals of a loop over the node's own
// rows: the root's, each smaller child's counted directly on either side
// of bitsetRows, and each larger child's derived from its parent's by
// subtraction, after the subtrees built before it wrote their own levels.
func TestCountTablesMatchFreshCounts(t *testing.T) {
	var s Scratch
	var st tableStats
	wide := 0
	for seed := uint64(1); seed <= 600; seed++ {
		for _, kind := range []int{catInputs, mixedInputs} {
			src := rng.New(seed)
			p := newDesignProblem(seed, kind, src)
			n := p.x.Rows
			arity := 2 + src.IntN(4)
			if seed%25 == 0 {
				arity = 256 + src.IntN(45)
			}
			y := make([]int, n)
			for i := range y {
				if v := p.x.At(i, p.cols[0]); src.Bernoulli(0.5) && !dataset.IsMissing(v) {
					y[i] = int(math.Abs(v)*7) % arity
				} else {
					y[i] = src.IntN(arity)
				}
			}
			p.drawFit(seed, src)
			for _, f := range p.inputs {
				if f.Arity > 255 {
					wide++
				}
			}
			d := NewDesign(p.x, p.schema)
			s.fit = fit{d: d, cols: p.cols, params: p.params.withDefaults(), catY: y, arity: arity}
			s.prepare(p.rows)
			switch cc := d.codes.(type) {
			case codeCols[uint8]:
				checkTables(t, seed, &builder[uint8]{Scratch: &s, codes: cc}, &st)
			case codeCols[uint16]:
				checkTables(t, seed, &builder[uint16]{Scratch: &s, codes: cc}, &st)
			default:
				t.Fatalf("seed %d: codes of type %T", seed, cc)
			}
			if t.Failed() {
				t.Fatalf("seed %d: %s inputs", seed, inputKinds[kind])
			}
		}
	}
	t.Logf("%d derived tables, %d counted under %d rows, %d at or over it; %d wide inputs",
		st.derived, st.small, bitsetRows, st.large, wide)
	if st.derived < 1000 || st.small < 1000 || st.large < 1000 || wide < 50 {
		t.Errorf("want at least 1000 tables of each kind and 50 wide inputs")
	}
}

// checkTables grows b's tree as build does, checking each scanned node's
// count table against a fresh count of its rows before scanning it.
func checkTables[C codeWord](t *testing.T, seed uint64, b *builder[C], st *tableStats) {
	t.Helper()
	var walk func(sg segment)
	walk = func(sg segment) {
		if !sg.scan {
			return
		}
		rows := b.rows[sg.lo:sg.hi]
		switch {
		case sg.level < sg.depth:
			st.derived++
		case len(rows) < bitsetRows:
			st.small++
		default:
			st.large++
		}
		checkLevel(t, seed, b, sg, b.level(sg.level))
		best, ok := b.bestSplit(rows, sg.imp, b.level(sg.level))
		if !ok || best.gain < b.params.MinGain {
			return
		}
		nLeft, _, ok := b.partition(rows, best)
		if !ok {
			return
		}
		mid := sg.lo + nLeft
		l, r := b.segment(sg.lo, mid, sg.depth+1), b.segment(mid, sg.hi, sg.depth+1)
		b.countChildren(&l, &r, sg.level)
		walk(l)
		walk(r)
	}
	root := b.segment(0, len(b.rows), 0)
	if root.scan {
		b.count(b.level(0), b.rows)
	}
	walk(root)
}

// checkLevel compares every categorical candidate's block of tab, the
// table of node sg, with a count over the node's rows.
func checkLevel[C codeWord](t *testing.T, seed uint64, b *builder[C], sg segment, tab []int32) {
	t.Helper()
	k := b.arity
	for i, c := range b.cols {
		a := b.d.cols[c].arity
		if a == 0 {
			continue
		}
		want := make([]int32, blockLen(a, k))
		for _, r := range b.rows[sg.lo:sg.hi] {
			v := b.column(c)[r]
			if v == ^C(0) {
				continue
			}
			want[int(v)*k+b.catY[r]]++
			want[a*k+int(v)]++
			want[a*k+a+b.catY[r]]++
			want[a*k+a+k]++
		}
		if got := tab[b.blocks[i]:b.blocks[i+1]]; !slices.Equal(got, want) {
			t.Errorf("seed %d: node of %d rows at depth %d (table level %d), column %d of arity %d: table %v, fresh count %v",
				seed, sg.hi-sg.lo, sg.depth, sg.level, c, a, got, want)
			return
		}
	}
}
