package tree

import (
	"math"
	"testing"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
)

// TestFitClassifierMatchesTrainClassifier pins a fit on a shared design to
// TrainClassifier on the gathered rows: over seeded problems, a fit that
// reads a subset of a wider design's rows through a column map grows the
// same tree, node for node and floats by their bits, as TrainClassifier and
// the frozen reference builder grow on the gathered matrix; and walking it
// over the design classifies every design row, fitted or not, as
// PredictLabel classifies the gathered row. The problems cover missing
// cells, input arities 2–5 plus one above 255 (16-bit codes), target
// arities 2–5 and above 255, MinLeaf 1–3, designs of 1, 63, 64, 65, 128,
// 129 and up to 300 rows, and nodes on both sides of bitsetRows.
func TestFitClassifierMatchesTrainClassifier(t *testing.T) {
	var s Scratch // shared by every fit, as a worker's is
	var small, large, wide int
	for seed := uint64(1); seed <= 1200; seed++ {
		src := rng.New(seed)
		n := []int{1, 63, 64, 65, 128, 129}[seed%6]
		if seed%2 == 0 {
			n = 1 + src.IntN(300)
		}
		// The design holds the inputs' columns in a random order among
		// real and categorical columns the fit does not read.
		d := 1 + src.IntN(8)
		extra := src.IntN(4)
		schema := make(dataset.Schema, d+extra)
		perm := src.Perm(d + extra)
		cols := perm[:d]
		for _, c := range perm[d:] {
			if src.Bernoulli(0.5) {
				schema[c] = dataset.Feature{Name: "r", Kind: dataset.Real}
			} else {
				schema[c] = dataset.Feature{Name: "x", Kind: dataset.Categorical, Arity: 2 + src.IntN(4)}
			}
		}
		for _, c := range cols {
			schema[c] = dataset.Feature{Name: "c", Kind: dataset.Categorical, Arity: 2 + src.IntN(4)}
		}
		if seed%9 == 0 {
			schema[cols[src.IntN(d)]].Arity = 256 + src.IntN(45)
			wide++
		}
		missing := 0.3 * src.Float64()
		x := linalg.NewMatrix(n, len(schema))
		for i := 0; i < n; i++ {
			for j, f := range schema {
				switch {
				case src.Bernoulli(missing):
					x.Set(i, j, dataset.Missing)
				case f.Kind == dataset.Categorical:
					x.Set(i, j, float64(src.IntN(f.Arity)))
				default:
					x.Set(i, j, src.Norm())
				}
			}
		}
		arity := 2 + src.IntN(4)
		if seed%25 == 0 {
			arity = 256 + src.IntN(45)
		}
		y := make([]int, n)
		for i := range y {
			// Labels follow the first input half the time, so trees grow
			// real structure rather than splitting on noise alone.
			if v := x.At(i, cols[0]); src.Bernoulli(0.5) && !dataset.IsMissing(v) {
				y[i] = int(v*7) % arity
			} else {
				y[i] = src.IntN(arity)
			}
		}
		// The fit's rows: all of them or a random subset, in design order
		// or shuffled.
		var rows []int
		keep := 0.5 + 0.5*src.Float64()
		for i := 0; i < n; i++ {
			if seed%3 == 0 || src.Bernoulli(keep) {
				rows = append(rows, i)
			}
		}
		if seed%4 == 0 {
			src.Shuffle(rows)
		}
		params := Params{
			MinLeaf:  1 + src.IntN(3),
			MaxDepth: []int{1, 3, 12}[src.IntN(3)],
		}

		inputs := schema.Select(cols)
		gx := linalg.NewMatrix(len(rows), d)
		gy := make([]int, len(rows))
		for i, r := range rows {
			for j, c := range cols {
				gx.Set(i, j, x.At(r, c))
			}
			gy[i] = y[r]
		}
		design := NewDesign(x, schema)
		got := FitClassifier(design, cols, inputs, rows, y, arity, params, &s)
		want := TrainClassifier(gx, inputs, gy, arity, params)
		compareNodes(t, seed, got.nodes, want.nodes)
		compareNodes(t, seed, got.nodes, refTrainClassifier(gx, inputs, gy, arity, params).nodes)
		row := make([]float64, d)
		for r := 0; r < n; r++ {
			for j, c := range cols {
				row[j] = x.At(r, c)
			}
			if g, w := got.PredictDesignRow(design, cols, r), want.PredictLabel(row); g != w {
				t.Fatalf("seed %d: design row %d walks to label %d, the gathered row to %d", seed, r, g, w)
			}
		}
		// Count the splits found on each side of bitsetRows: a node's rows
		// are the fitted rows that walk through it.
		visits := make([]int, len(got.nodes))
		for i := range rows {
			for k := 0; got.nodes[k].feature >= 0; {
				nd := &got.nodes[k]
				visits[k]++
				v := gx.At(i, nd.feature)
				if (dataset.IsMissing(v) && nd.missingLeft) || (!dataset.IsMissing(v) && int(v) == nd.category) {
					k = int(nd.left)
				} else {
					k = int(nd.right)
				}
			}
		}
		for k, nd := range got.nodes {
			switch {
			case nd.feature < 0:
			case visits[k] >= bitsetRows:
				large++
			default:
				small++
			}
		}
	}
	if small < 1000 || large < 1000 || wide < 100 {
		t.Fatalf("%d splits of nodes under %d rows, %d of nodes at or over it, %d problems with a wide input",
			small, bitsetRows, large, wide)
	}
	t.Logf("%d splits of nodes under %d rows, %d of nodes at or over it", small, bitsetRows, large)
}

// TestFitClassifierAllocs: after warm-up, a fit on a shared design
// allocates only what it returns, the node array and the Classifier
// holding it.
func TestFitClassifierAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are distorted by race-detector instrumentation")
	}
	x, inputs, y := snpTerm(t)
	d := NewDesign(x, inputs)
	cols := make([]int, x.Cols)
	for j := range cols {
		cols[j] = j
	}
	rows := make([]int, x.Rows)
	for i := range rows {
		rows[i] = i
	}
	var s Scratch
	FitClassifier(d, cols, inputs, rows, y, 3, Params{}, &s)
	allocs := testing.AllocsPerRun(5, func() {
		FitClassifier(d, cols, inputs, rows, y, 3, Params{}, &s)
	})
	if allocs > 2 {
		t.Errorf("FitClassifier allocates %.0f times per fit after warm-up, want <= 2", allocs)
	}
}

// TestDesignLayout pins the design's storage: codes as narrow as the
// widest arity allows, the missing sentinel in no category's bitset, and
// Bytes counting exactly what is stored.
func TestDesignLayout(t *testing.T) {
	for _, c := range []struct {
		arity, codeBytes int
	}{{2, 1}, {255, 1}, {256, 2}, {math.MaxUint16, 2}, {math.MaxUint16 + 1, 4}} {
		schema := dataset.Schema{
			{Name: "r", Kind: dataset.Real},
			{Name: "c", Kind: dataset.Categorical, Arity: c.arity},
		}
		const n = 70
		x := linalg.NewMatrix(n, 2)
		for i := 0; i < n; i++ {
			x.Set(i, 0, float64(i))
			x.Set(i, 1, float64((i*37)%c.arity))
		}
		x.Set(5, 1, dataset.Missing)
		d := NewDesign(x, schema)
		words := (n + 63) / 64
		want := int64(2*24) + int64(c.arity*words*8) + int64(n*c.codeBytes)
		if got := d.Bytes(); got != want {
			t.Errorf("arity %d: Bytes = %d, want %d", c.arity, got, want)
		}
		col := d.cols[1]
		for i := 0; i < n; i++ {
			in := 0
			for cat := 0; cat < c.arity; cat++ {
				if d.bits[col.bits+cat*words+i>>6]>>(i&63)&1 == 1 {
					in++
					if v := x.At(i, 1); float64(cat) != v {
						t.Fatalf("arity %d: row %d is in category %d's set, holds %v", c.arity, i, cat, v)
					}
				}
			}
			if want := 1; i == 5 {
				if in != 0 {
					t.Errorf("arity %d: missing row in %d sets", c.arity, in)
				}
			} else if in != want {
				t.Errorf("arity %d: row %d in %d sets", c.arity, i, in)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewDesign accepted a cell that is not a label")
		}
	}()
	NewDesign(linalg.FromRows([][]float64{{3}}), dataset.Schema{{Name: "c", Kind: dataset.Categorical, Arity: 3}})
}
