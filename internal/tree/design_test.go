package tree

import (
	"math"
	"slices"
	"testing"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
)

// tieGrid is where real inputs often take their values, so threshold ties
// occur. Its last two values are adjacent floats, whose midpoint rounds
// down onto the lower one.
var tieGrid = []float64{-2, -1, -0.5, 0, 0.25, 1, math.Nextafter(1, 2)}

// designProblem is one seeded problem for a fit on a shared design.
type designProblem struct {
	x      *linalg.Matrix // the design's cells
	schema dataset.Schema // the design's columns
	cols   []int          // the fit's inputs, as design columns
	inputs dataset.Schema // schema.Select(cols)
	rows   []int          // the fit's design rows, in fit order
	gx     *linalg.Matrix // the fit's rows gathered through cols
	params Params
}

// Input kinds of a designProblem, indexing inputKinds.
const (
	catInputs = iota
	realInputs
	mixedInputs
)

var inputKinds = []string{"categorical", "real", "mixed"}

// newDesignProblem draws a design from src: 1, 63, 64, 65, 128, 129 or
// up to 300 rows whose 1–8 input columns, all categorical, all real or
// mixed as kind says, sit in a random order among up to 3 real and
// categorical columns the fit does not read; up to 30% missing cells; real
// inputs' values from tieGrid or a normal; and, when seed is a multiple of
// 9 and some input is categorical, one categorical input of arity 256–300.
// The caller draws the targets and then the fit (drawFit). For catInputs
// the draws are those the all-categorical problems were first drawn with,
// so the same seeds give the same problems.
func newDesignProblem(seed uint64, kind int, src *rng.Source) designProblem {
	n := []int{1, 63, 64, 65, 128, 129}[seed%6]
	if seed%2 == 0 {
		n = 1 + src.IntN(300)
	}
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
	var catCols []int
	tied := make([]bool, len(schema)) // real inputs, which draw from tieGrid
	for _, c := range cols {
		if kind == realInputs || (kind == mixedInputs && src.Bernoulli(0.5)) {
			schema[c] = dataset.Feature{Name: "r", Kind: dataset.Real}
			tied[c] = true
			continue
		}
		schema[c] = dataset.Feature{Name: "c", Kind: dataset.Categorical, Arity: 2 + src.IntN(4)}
		catCols = append(catCols, c)
	}
	if seed%9 == 0 && len(catCols) > 0 {
		schema[catCols[src.IntN(len(catCols))]].Arity = 256 + src.IntN(45)
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
			case tied[j] && src.Bernoulli(0.5):
				x.Set(i, j, tieGrid[src.IntN(len(tieGrid))])
			default:
				x.Set(i, j, src.Norm())
			}
		}
	}
	return designProblem{x: x, schema: schema, cols: cols, inputs: schema.Select(cols)}
}

// drawFit draws p's fit from src: its rows, all of the design's or a
// random subset, in design or shuffled order, gathered into p.gx; and its
// parameters, MinLeaf 1–3 and MaxDepth 1, 3 or 12.
func (p *designProblem) drawFit(seed uint64, src *rng.Source) {
	n := p.x.Rows
	p.rows = nil
	keep := 0.5 + 0.5*src.Float64()
	for i := 0; i < n; i++ {
		if seed%3 == 0 || src.Bernoulli(keep) {
			p.rows = append(p.rows, i)
		}
	}
	if seed%4 == 0 {
		src.Shuffle(p.rows)
	}
	p.params = Params{MinLeaf: 1 + src.IntN(3), MaxDepth: []int{1, 3, 12}[src.IntN(3)]}
	p.gx = linalg.NewMatrix(len(p.rows), len(p.cols))
	for i, r := range p.rows {
		for j, c := range p.cols {
			p.gx.Set(i, j, p.x.At(r, c))
		}
	}
}

// gathered returns design row r's cells gathered through p.cols into buf.
func (p *designProblem) gathered(r int, buf []float64) []float64 {
	for j, c := range p.cols {
		buf[j] = p.x.At(r, c)
	}
	return buf
}

// renamed returns a copy of nodes grown on p's gathered rows with their
// features renamed through p.cols (Rename), so that they name design
// columns as the nodes of a fit on the design do.
func (p *designProblem) renamed(nodes []node) []node {
	t := tree{nodes: slices.Clone(nodes)}
	t.Rename(p.cols)
	return t.nodes
}

// countSplits adds each split of nodes, whose features are design columns,
// to small or large by how many of the fit's design rows reach it, against
// bitsetRows, and returns how many of them are threshold splits.
func (p *designProblem) countSplits(nodes []node, small, large *int) (threshold int) {
	visits := make([]int, len(nodes))
	for _, r := range p.rows {
		for k := 0; nodes[k].feature >= 0; {
			nd := &nodes[k]
			visits[k]++
			v := p.x.At(r, nd.feature)
			left := nd.missingLeft
			switch {
			case dataset.IsMissing(v):
			case nd.category >= 0:
				left = int(v) == nd.category
			default:
				left = v < nd.threshold
			}
			if left {
				k = int(nd.left)
			} else {
				k = int(nd.right)
			}
		}
	}
	for k, nd := range nodes {
		switch {
		case nd.feature < 0:
		case nd.category < 0:
			threshold++
		case visits[k] >= bitsetRows:
			*large++
		default:
			*small++
		}
	}
	return threshold
}

// TestFitClassifierMatchesTrainClassifier pins a fit on a shared design to
// TrainClassifier on the gathered rows: over 1,200 seeds, each drawn with
// all-categorical, all-real and mixed inputs (newDesignProblem), a fit
// over a subset of a wider design's rows and columns grows the same tree,
// node for node and floats by their bits, as TrainClassifier and the
// frozen reference (ref_test.go) grow on the gathered matrix, once their
// nodes are renamed from gathered to design columns; and walking it over
// the design classifies every design row, fitted or not, as its walk over
// the raw row and the gathered tree's walk over the gathered row classify
// it.
// Target arities run 2–5 and above 255; categorical splits fall on nodes
// on both sides of bitsetRows; and both the all-categorical and the mixed
// problems include inputs of arity above 255 (16-bit codes).
func TestFitClassifierMatchesTrainClassifier(t *testing.T) {
	var s Scratch // shared by every fit, as a worker's is
	var small, large, thresholds, wide [3]int
	for seed := uint64(1); seed <= 1200; seed++ {
		for kind := range inputKinds {
			src := rng.New(seed)
			p := newDesignProblem(seed, kind, src)
			for _, f := range p.inputs {
				if f.Arity > 255 {
					wide[kind]++
				}
			}
			n := p.x.Rows
			arity := 2 + src.IntN(4)
			if seed%25 == 0 {
				arity = 256 + src.IntN(45)
			}
			y := make([]int, n)
			for i := range y {
				// Labels follow the first input half the time, so trees grow
				// real structure rather than splitting on noise alone.
				if v := p.x.At(i, p.cols[0]); src.Bernoulli(0.5) && !dataset.IsMissing(v) {
					y[i] = int(math.Abs(v)*7) % arity
				} else {
					y[i] = src.IntN(arity)
				}
			}
			p.drawFit(seed, src)
			gy := make([]int, len(p.rows))
			for i, r := range p.rows {
				gy[i] = y[r]
			}
			design := NewDesign(p.x, p.schema)
			got := FitClassifier(design, p.cols, p.rows, y, arity, p.params, &s)
			want := TrainClassifier(p.gx, p.inputs, gy, arity, p.params)
			compareNodes(t, seed, got.nodes, p.renamed(want.nodes))
			compareNodes(t, seed, got.nodes, p.renamed(refTrainClassifier(p.gx, p.inputs, gy, arity, p.params).nodes))
			if t.Failed() {
				t.Fatalf("seed %d: %s inputs", seed, inputKinds[kind])
			}
			row := make([]float64, len(p.cols))
			raw := make([]int, n)
			got.PredictLabelBatch(p.x, raw)
			for r := 0; r < n; r++ {
				g := got.PredictDesignRow(design, r)
				if w := predictLabel(want, p.gathered(r, row)); g != w {
					t.Fatalf("seed %d, %s inputs: design row %d walks to label %d, the gathered row to %d",
						seed, inputKinds[kind], r, g, w)
				}
				if raw[r] != g {
					t.Fatalf("seed %d, %s inputs: design row %d walks to label %d, the raw row to %d",
						seed, inputKinds[kind], r, g, raw[r])
				}
			}
			thresholds[kind] += p.countSplits(got.nodes, &small[kind], &large[kind])
		}
	}
	for kind, name := range inputKinds {
		t.Logf("%s inputs: %d categorical splits of nodes under %d rows, %d of nodes at or over it, %d threshold splits, %d wide inputs",
			name, small[kind], bitsetRows, large[kind], thresholds[kind], wide[kind])
	}
	if small[catInputs] < 1000 || large[catInputs] < 1000 || wide[catInputs] < 100 {
		t.Errorf("categorical inputs: want at least 1000 splits on each side of bitsetRows and 100 wide inputs")
	}
	if small[mixedInputs] < 1000 || large[mixedInputs] < 1000 || wide[mixedInputs] < 100 || thresholds[mixedInputs] < 1000 {
		t.Errorf("mixed inputs: want at least 1000 categorical splits on each side of bitsetRows, 1000 threshold splits and 100 wide inputs")
	}
	if thresholds[realInputs] < 1000 {
		t.Errorf("real inputs: want at least 1000 threshold splits")
	}
}

// TestFitRegressorMatchesTrainRegressor is FitClassifier's property for
// regression trees: over 1,200 seeds, each drawn with all-categorical,
// all-real and mixed inputs (newDesignProblem), a fit on a shared design
// grows TrainRegressor's and the frozen reference's tree on the gathered
// rows, renamed to design columns, node for node and floats by their bits,
// and PredictDesignRow gives every design row the value PredictBatch gives
// its raw row and the gathered tree gives its gathered row, to the bit. A
// fifth of the targets are 1e16-scaled grid values, so every target sum
// depends on its order and a change of summation order moves the node
// values.
func TestFitRegressorMatchesTrainRegressor(t *testing.T) {
	var s Scratch
	var small, large, thresholds [3]int
	for seed := uint64(1); seed <= 1200; seed++ {
		for kind := range inputKinds {
			src := rng.New(seed)
			p := newDesignProblem(seed, kind, src)
			n := p.x.Rows
			y := make([]float64, n)
			for i := range y {
				if v := p.x.At(i, p.cols[0]); !dataset.IsMissing(v) {
					y[i] = 2*v + src.Norm()
				} else {
					y[i] = src.Norm()
				}
				if src.Bernoulli(0.2) {
					y[i] = 1e16 * tieGrid[src.IntN(len(tieGrid))]
				}
			}
			p.drawFit(seed, src)
			gy := make([]float64, len(p.rows))
			for i, r := range p.rows {
				gy[i] = y[r]
			}
			design := NewDesign(p.x, p.schema)
			got := FitRegressor(design, p.cols, p.rows, y, p.params, &s)
			want := TrainRegressor(p.gx, p.inputs, gy, p.params)
			compareNodes(t, seed, got.nodes, p.renamed(want.nodes))
			compareNodes(t, seed, got.nodes, p.renamed(refTrainRegressor(p.gx, p.inputs, gy, p.params).nodes))
			if t.Failed() {
				t.Fatalf("seed %d: %s inputs", seed, inputKinds[kind])
			}
			row := make([]float64, len(p.cols))
			raw := make([]float64, n)
			got.PredictBatch(p.x, raw)
			for r := 0; r < n; r++ {
				g, w := got.PredictDesignRow(design, r), predict(want, p.gathered(r, row))
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d, %s inputs: design row %d walks to %v, the gathered row to %v",
						seed, inputKinds[kind], r, g, w)
				}
				if math.Float64bits(raw[r]) != math.Float64bits(g) {
					t.Fatalf("seed %d, %s inputs: design row %d walks to %v, the raw row to %v",
						seed, inputKinds[kind], r, g, raw[r])
				}
			}
			thresholds[kind] += p.countSplits(got.nodes, &small[kind], &large[kind])
		}
	}
	for kind, name := range inputKinds {
		t.Logf("%s inputs: %d categorical splits, %d threshold splits", name, small[kind]+large[kind], thresholds[kind])
	}
	if small[catInputs]+large[catInputs] < 1000 || thresholds[realInputs] < 1000 ||
		small[mixedInputs]+large[mixedInputs] < 1000 || thresholds[mixedInputs] < 1000 {
		t.Errorf("want at least 1000 categorical splits on categorical inputs, 1000 threshold splits on real inputs, and 1000 of each on mixed inputs")
	}
}

// allocTerm is one FRaC tree term with classification labels y and
// regression targets yF.
type allocTerm struct {
	name   string
	x      *linalg.Matrix
	inputs dataset.Schema
	y      []int
	yF     []float64
}

// allocTerms returns one FRaC tree term at the train-snp benchmark's shape
// (snpTerm) with categorical, real and mixed inputs: the real columns are
// the genotypes plus noise, and the mixed term makes every other input
// real.
func allocTerms(tb testing.TB) []allocTerm {
	x, inputs, y := snpTerm(tb)
	src := rng.New(11)
	yF := make([]float64, len(y))
	for i, v := range y {
		yF[i] = float64(v) + 0.1*src.Norm()
	}
	withReal := func(every int) (*linalg.Matrix, dataset.Schema) {
		rx, schema := x.Clone(), append(dataset.Schema(nil), inputs...)
		for j := 0; j < rx.Cols; j += every {
			schema[j] = dataset.Feature{Name: "r", Kind: dataset.Real}
			for i := 0; i < rx.Rows; i++ {
				rx.Set(i, j, rx.At(i, j)+0.25*src.Norm())
			}
		}
		return rx, schema
	}
	rx, rs := withReal(1)
	mx, ms := withReal(2)
	return []allocTerm{{"categorical", x, inputs, y, yF}, {"real", rx, rs, y, yF}, {"mixed", mx, ms, y, yF}}
}

// fitAllocs measures the allocations of one fit on a shared design of x
// after warm-up, over every row and column.
func fitAllocs(x *linalg.Matrix, inputs dataset.Schema, fit func(d *Design, cols, rows []int, s *Scratch)) float64 {
	d, cols, rows := privateDesign(x, inputs)
	var s Scratch
	fit(d, cols, rows, &s)
	return testing.AllocsPerRun(5, func() { fit(d, cols, rows, &s) })
}

// TestFitClassifierAllocs: after warm-up, a fit on a shared design
// allocates only what it returns, the node array and the Classifier
// holding it, whatever its inputs' kinds.
func TestFitClassifierAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are distorted by race-detector instrumentation")
	}
	for _, term := range allocTerms(t) {
		allocs := fitAllocs(term.x, term.inputs, func(d *Design, cols, rows []int, s *Scratch) {
			FitClassifier(d, cols, rows, term.y, 3, Params{}, s)
		})
		if allocs > 2 {
			t.Errorf("%s inputs: FitClassifier allocates %.0f times per fit after warm-up, want <= 2", term.name, allocs)
		}
	}
}

// TestFitRegressorAllocs is TestFitClassifierAllocs for regression trees:
// the node array and the Regressor.
func TestFitRegressorAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are distorted by race-detector instrumentation")
	}
	for _, term := range allocTerms(t) {
		allocs := fitAllocs(term.x, term.inputs, func(d *Design, cols, rows []int, s *Scratch) {
			FitRegressor(d, cols, rows, term.yF, Params{}, s)
		})
		if allocs > 2 {
			t.Errorf("%s inputs: FitRegressor allocates %.0f times per fit after warm-up, want <= 2", term.name, allocs)
		}
	}
}

// TestDesignLayout pins the design's storage: codes as narrow as the
// widest arity allows, the missing sentinel in no category's bitset, real
// columns as stored values with NaN for a missing cell, and Bytes counting
// exactly what is stored.
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
		x.Set(7, 0, dataset.Missing)
		d := NewDesign(x, schema)
		words := (n + 63) / 64
		want := int64(2*24) + int64(n*8) + int64(c.arity*words*8) + int64(n*c.codeBytes)
		if got := d.Bytes(); got != want {
			t.Errorf("arity %d: Bytes = %d, want %d", c.arity, got, want)
		}
		for i, v := range d.realCol(0) {
			if math.Float64bits(v) != math.Float64bits(x.At(i, 0)) {
				t.Fatalf("arity %d: real row %d stored as %v, holds %v", c.arity, i, v, x.At(i, 0))
			}
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
