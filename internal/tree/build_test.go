package tree

import (
	"math"
	"testing"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
	"frac/internal/synth"
)

// raceDetectorEnabled is set by race_enabled_test.go under -race, whose
// instrumentation allocates and so distorts AllocsPerRun counts.
var raceDetectorEnabled bool

// snpTerm builds one FRaC tree term at the train-snp benchmark's shape: 211
// training rows of LD-structured ternary genotypes, one site as the arity-3
// target and the other 226 as categorical inputs.
func snpTerm(tb testing.TB) (*linalg.Matrix, dataset.Schema, []int) {
	tb.Helper()
	const rows, sites, target = 211, 227, 113
	d, err := synth.GenerateSNP("snp", synth.SNPParams{Features: sites, Normal: rows, Anomaly: 1}, rng.New(7))
	if err != nil {
		tb.Fatal(err)
	}
	x := linalg.NewMatrix(rows, sites-1)
	y := make([]int, rows)
	for i := 0; i < rows; i++ {
		s := d.Sample(i)
		y[i] = int(s[target])
		copy(x.Row(i), s[:target])
		copy(x.Row(i)[target:], s[target+1:])
	}
	return x, catSchema(sites-1, 3), y
}

// TestTrainClassifierAllocs guards the per-fit allocation budget: a fit
// allocates its returned nodes and a fixed set of per-fit buffers, never
// per node or per candidate feature. It makes 18 allocations; the fixture's
// tree has 41 nodes, 20 of them internal, so one allocation per internal
// node or per leaf breaks the bound.
func TestTrainClassifierAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are distorted by race-detector instrumentation")
	}
	const maxAllocs = 30
	x, inputs, y := snpTerm(t)
	allocs := testing.AllocsPerRun(5, func() {
		TrainClassifier(x, inputs, y, 3, Params{})
	})
	if allocs > maxAllocs {
		t.Errorf("TrainClassifier allocates %.0f times per fit, want <= %d", allocs, maxAllocs)
	}
}

// BenchmarkTrainClassifier times one tree fit at the train-snp shape, the
// only training path of an all-SNP FRaC run under the paper's learners.
// -benchtime 40x gives about 50 ms of signal.
func BenchmarkTrainClassifier(b *testing.B) {
	x, inputs, y := snpTerm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchClassifier = TrainClassifier(x, inputs, y, 3, Params{})
	}
}

var benchClassifier *Classifier

// TestBuilderMatchesReference pins the production builder to the frozen
// reference builder (ref_test.go): over seeded random problems mixing real
// and categorical inputs, missing cells, tied real values and both target
// kinds, every node must match field for field, floats by their bits.
func TestBuilderMatchesReference(t *testing.T) {
	// Real inputs often come from a small grid, so threshold ties occur. Its
	// last two values are adjacent floats, whose midpoint rounds down onto
	// the lower one: such a threshold sends the lower value right, so a
	// split the scan accepted can still leave a child under MinLeaf.
	grid := []float64{-2, -1, -0.5, 0, 0.25, 1, math.Nextafter(1, 2)}
	for seed := uint64(1); seed <= 1000; seed++ {
		src := rng.New(seed)
		n := 1 + src.IntN(300)
		if seed%10 == 0 {
			n = 1 + src.IntN(4) // tiny problems: empty, lone-row and unsplittable nodes
		}
		d := 1 + src.IntN(8)
		missing := 0.3 * src.Float64()
		inputs := make(dataset.Schema, d)
		for j := range inputs {
			if src.Bernoulli(0.5) {
				inputs[j] = dataset.Feature{Name: "c", Kind: dataset.Categorical, Arity: 2 + src.IntN(4)}
			} else {
				inputs[j] = dataset.Feature{Name: "r", Kind: dataset.Real}
			}
		}
		x := linalg.NewMatrix(n, d)
		for i := 0; i < n; i++ {
			for j, f := range inputs {
				switch {
				case src.Bernoulli(missing):
					x.Set(i, j, dataset.Missing)
				case f.Kind == dataset.Categorical:
					x.Set(i, j, float64(src.IntN(f.Arity)))
				case src.Bernoulli(0.5):
					x.Set(i, j, grid[src.IntN(len(grid))]) // ties
				default:
					x.Set(i, j, src.Norm())
				}
			}
		}
		params := Params{
			MinLeaf:  []int{1, 2, 5}[src.IntN(3)],
			MaxDepth: []int{1, 3, 12}[src.IntN(3)],
		}
		if seed%2 == 0 {
			arity := 2 + src.IntN(4)
			y := make([]int, n)
			for i := range y {
				// Labels follow the first input half the time, so trees
				// grow real structure rather than splitting on noise alone.
				if v := x.At(i, 0); src.Bernoulli(0.5) && !dataset.IsMissing(v) {
					y[i] = int(math.Abs(v)*7) % arity
				} else {
					y[i] = src.IntN(arity)
				}
			}
			got := TrainClassifier(x, inputs, y, arity, params)
			want := refTrainClassifier(x, inputs, y, arity, params)
			compareNodes(t, seed, got.nodes, want.nodes)
		} else {
			y := make([]float64, n)
			for i := range y {
				if v := x.At(i, 0); !dataset.IsMissing(v) {
					y[i] = 2*v + src.Norm()
				} else {
					y[i] = src.Norm()
				}
				if src.Bernoulli(0.2) {
					// Mixed magnitudes make every target sum depend on
					// its order, which the node values then expose.
					y[i] = 1e16 * grid[src.IntN(len(grid))]
				}
			}
			got := TrainRegressor(x, inputs, y, params)
			want := refTrainRegressor(x, inputs, y, params)
			compareNodes(t, seed, got.nodes, want.nodes)
		}
	}
}

func compareNodes(t *testing.T, seed uint64, got, want []node) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("seed %d: %d nodes, reference has %d", seed, len(got), len(want))
		return
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.feature != w.feature || g.category != w.category || g.missingLeft != w.missingLeft ||
			g.left != w.left || g.right != w.right || g.label != w.label ||
			math.Float64bits(g.threshold) != math.Float64bits(w.threshold) ||
			math.Float64bits(g.value) != math.Float64bits(w.value) {
			t.Errorf("seed %d: node %d = %+v, reference %+v", seed, i, g, w)
			return
		}
	}
}
