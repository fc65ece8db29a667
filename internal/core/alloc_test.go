package core

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
	"frac/internal/synth"
	"frac/internal/tree"
)

// raceDetectorEnabled is set by race_enabled_test.go under -race. The race
// detector's instrumentation allocates, so AllocsPerRun counts are
// meaningless there; the zero-allocation contracts are enforced by the
// non-race CI job instead.
var raceDetectorEnabled bool

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("allocation counts are distorted by race-detector instrumentation")
	}
}

// TestScoreZeroAllocs guards the zero-allocation contract of per-sample
// scoring: after the pooled scratch warms up, Score must not allocate, over
// a wiring of SVR terms and tree terms alike, and over a wide model whose
// Gram-routed terms score through its basis.
func TestScoreZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, fx := range scoreFixtures(t) {
		sample := fx.test.Sample(0)
		fx.model.Score(sample) // warm up the pool
		allocs := testing.AllocsPerRun(100, func() {
			fx.model.Score(sample)
		})
		if allocs != 0 {
			t.Errorf("%s: Score allocates %.1f per call, want 0", fx.name, allocs)
		}
	}
}

// scoreFixture is a trained model and rows to score with it.
type scoreFixture struct {
	name  string
	model *Model
	test  *dataset.Dataset
}

// scoreFixtures trains the scoring tests' models: the golden mixed model,
// every term primal or a tree, and the wide model, which has a basis and
// Gram-routed terms next to primal ones.
func scoreFixtures(t *testing.T) []scoreFixture {
	t.Helper()
	golden, goldenTest := goldenTrainTest()
	wide, wideTest := wideTrainTest()
	var out []scoreFixture
	for _, fx := range []struct {
		name        string
		train, test *dataset.Dataset
	}{{"golden", golden, goldenTest}, {"wide", wide, wideTest}} {
		model, err := Train(fx.train, FullTerms(fx.train.NumFeatures()), Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if gram := countDual(model); (gram > 0) != (fx.name == "wide") || (gram > 0) != (model.basis != nil) {
			t.Fatalf("%s: %d Gram-routed terms, basis %v", fx.name, gram, model.basis != nil)
		}
		out = append(out, scoreFixture{fx.name, model, fx.test})
	}
	return out
}

// countDual counts a model's Gram-routed terms.
func countDual(m *Model) int {
	n := 0
	for i := range m.terms {
		if m.terms[i].dual != nil {
			n++
		}
	}
	return n
}

// TestPredictBatchZeroAllocs asserts the batch prediction paths of every
// trained predictor kind allocate nothing after warm-up, reading each
// term's inputs from the raw test rows.
func TestPredictBatchZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	train, test := goldenTrainTest()
	model, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	n := test.NumSamples()
	preds := make([]float64, n)
	labels := make([]int, n)
	for ti := range model.terms {
		tm := &model.terms[ti]
		var allocs float64
		if tm.isCat {
			tm.cat.PredictLabelBatch(test.X, labels)
			allocs = testing.AllocsPerRun(50, func() {
				tm.cat.PredictLabelBatch(test.X, labels)
			})
		} else {
			tm.real.PredictBatch(test.X, preds)
			allocs = testing.AllocsPerRun(50, func() {
				tm.real.PredictBatch(test.X, preds)
			})
		}
		if allocs != 0 {
			t.Errorf("term %d (%T) batch predict allocates %.1f per batch, want 0", ti, predictorOf(tm), allocs)
		}
	}
}

// TestTrainTermSteadyStateAllocs guards the training hot path: with a warm
// per-worker scratch and the term's plan in hand, training one real term
// allocates only what the trained model retains (weights, statistics,
// error model) — never fold draws, per-fold matrix copies or residual
// buffers. Full, diverse-shaped and missing-target terms each stay within
// the ceiling on the in-core route and allocate no more than the reference
// route, and a categorical term on the tree route stays within its own.
// The ceilings sit a few allocations above today's counts (21 in core, 11
// on the tree route), far below the 41 and 40 that per-term fold draws
// cost.
func TestTrainTermSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	train, _ := goldenTrainTest()
	full := FullTerms(train.NumFeatures())
	cases := []struct {
		name string
		term Term
	}{
		{"full", full[0]},
		{"diverse", Term{Target: 1, Orig: 1, Inputs: []int{0, 3}}},
		{"missing-target", full[2]}, // r2 is missing in every 7th row
	}
	src := rng.New(1)
	measure := func(label string, train *dataset.Dataset, term Term, cfg Config, sc *trainScratch) float64 {
		t.Helper()
		plan, err := planTerms(train, []Term{term}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trainTerm(train, term, plan[0], cfg, src, sc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := trainTerm(train, term, plan[0], cfg, src, sc); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/term", label, allocs)
		return allocs
	}
	inCoreCfg := Config{Seed: 42}.withDefaults()
	refCfg := Config{Seed: 42, Learners: referenceLearners()}.withDefaults()
	for _, tc := range cases {
		inCore := measure(tc.name+"/in-core", train, tc.term, inCoreCfg, new(trainScratch))
		ref := measure(tc.name+"/reference", train, tc.term, refCfg, new(trainScratch))
		if inCore > ref {
			t.Errorf("%s: in-core route allocates %.1f/term, reference %.1f — in-core must not allocate more", tc.name, inCore, ref)
		}
		if inCore > 24 {
			t.Errorf("%s: in-core route allocates %.1f/term, want <= 24 (model retention, entropy estimate)", tc.name, inCore)
		}
		if ref > 96 {
			t.Errorf("%s: reference route allocates %.1f/term, want <= 96", tc.name, ref)
		}
	}
	cat, _ := randomCatTrainTest(120, 1, 12, 0, 0, rng.New(0x7a))
	sc := &trainScratch{design: tree.NewDesign(cat.X, cat.Schema)}
	if got := measure("tree", cat, FullTerms(cat.NumFeatures())[0], inCoreCfg, sc); got > 16 {
		t.Errorf("tree route allocates %.1f/term, want <= 16 (the trees' nodes, confusion matrix, entropy estimate)", got)
	}
}

// TestTrainMarginalTermSteadyStateAllocs pins the marginal fallback: its
// residual buffer comes from the worker scratch, so a warm training allocates
// only the constant predictor and the Gaussian error model.
func TestTrainMarginalTermSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	train, _ := goldenTrainTest()
	cfg := Config{Seed: 42}.withDefaults()
	term := Term{Target: 0, Orig: 0, Inputs: nil} // no inputs → marginal
	src := rng.New(1)
	sc := new(trainScratch)
	if _, err := trainTerm(train, term, termPlan{route: routeMarginal}, cfg, src, sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := trainTerm(train, term, termPlan{route: routeMarginal}, cfg, src, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("marginal term allocates %.1f per training, want <= 6 (scratch residuals)", allocs)
	}
}

// liveHeap returns the bytes of live heap objects: HeapAlloc after two
// collections, the second of which also empties the sync.Pool victim
// caches the first left.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRetainedHeapMatchesBytes holds Model.Bytes, the accounting that
// resource trackers and the exhibits' memory columns read, to what a model
// really retains: the live-heap growth a Train leaves, with its terms built
// inside the measured window, and the growth a ReadModel of its artifact
// leaves, each within 15% of the model's Bytes. The data sets are autism
// 1:32 (every term a tree) and biomarkers 1:32 (every term an SVR), one
// replicate's training set each. A warm-up Train first builds the
// process's one-time tables.
func TestRetainedHeapMatchesBytes(t *testing.T) {
	skipUnderRace(t)
	const tolerance = 0.15
	for _, name := range []string{"autism", "biomarkers"} {
		p, err := synth.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := p.Generate(32, 1)
		if err != nil {
			t.Fatal(err)
		}
		reps, err := dataset.MakeReplicates(pool, 1, 2.0/3, rng.New(1).StreamAt("split", 0))
		if err != nil {
			t.Fatal(err)
		}
		train := reps[0].Train
		cfg := Config{Seed: 1}
		if _, err := Train(train, FullTerms(train.NumFeatures()), cfg); err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		trained, err := Train(train, FullTerms(train.NumFeatures()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		trainGrowth := liveHeap() - before
		var buf bytes.Buffer
		if _, err := trained.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		before = liveHeap()
		loaded, err := ReadModel(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		readGrowth := liveHeap() - before
		for _, c := range []struct {
			what   string
			growth int64
			m      *Model
		}{{"Train", trainGrowth, trained}, {"ReadModel", readGrowth, loaded}} {
			ratio := float64(c.growth) / float64(c.m.Bytes())
			t.Logf("%s 1:32 %s: live heap grew %d bytes, Model.Bytes %d (%.3f×)", name, c.what, c.growth, c.m.Bytes(), ratio)
			if math.Abs(ratio-1) > tolerance {
				t.Errorf("%s 1:32 %s: live heap grew %d bytes, %.3f× Model.Bytes %d, want within %.0f%%",
					name, c.what, c.growth, ratio, c.m.Bytes(), tolerance*100)
			}
		}
		// The training set and the artifact stay live across both windows.
		runtime.KeepAlive(train)
		runtime.KeepAlive(buf.Bytes())
	}
}

// TestReadModelTreeAllocs: loading a tree model costs objects in
// proportion to its terms and nodes, not to its terms' inputs. ReadModel of
// the artifact of a TreeLearners Train on autism 1:128 (56 features, every
// term a classification tree over the other 55) allocates fewer than 16
// objects per term.
func TestReadModelTreeAllocs(t *testing.T) {
	skipUnderRace(t)
	p, err := synth.ProfileByName("autism")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := p.Generate(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := dataset.MakeReplicates(pool, 1, 2.0/3, rng.New(1).StreamAt("split", 0))
	if err != nil {
		t.Fatal(err)
	}
	train := reps[0].Train
	m, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 1, Learners: TreeLearners(tree.Params{})})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadModel(bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
	})
	perTerm := allocs / float64(len(m.terms))
	t.Logf("ReadModel of %d tree terms over %d features: %.0f allocations, %.1f per term", len(m.terms), train.NumFeatures(), allocs, perTerm)
	if perTerm >= 16 {
		t.Errorf("ReadModel allocates %.1f objects per tree term, want fewer than 16", perTerm)
	}
}

func predictorOf(tm *termModel) any {
	if tm.isCat {
		return tm.cat
	}
	return tm.real
}

// TestBatchMatchesPerSamplePrediction pins the batch contract: a predictor
// predicts for every raw test row within the batch exactly what it
// predicts for that row alone, compared by their bits, and ScoreDataset's
// per-term contributions are those predictions scored. It covers every
// term of the golden model and of a TreeLearners model on mixed data with
// missing cells.
func TestBatchMatchesPerSamplePrediction(t *testing.T) {
	golden, goldenTest := goldenTrainTest()
	mixed, mixedTest := randomCatTrainTest(60, 12, 5, 4, 0.5, rng.New(0x5c))
	for _, c := range []struct {
		name        string
		train, test *dataset.Dataset
		cfg         Config
	}{
		{"golden", golden, goldenTest, Config{Seed: 42}},
		{"tree/mixed", mixed, mixedTest, Config{Seed: 3, Learners: TreeLearners(tree.Params{})}},
	} {
		model, err := Train(c.train, FullTerms(c.train.NumFeatures()), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := model.ScoreDataset(c.test)
		if err != nil {
			t.Fatal(err)
		}
		n := c.test.NumSamples()
		preds, labels := make([]float64, n), make([]int, n)
		for ti := range model.terms {
			tm := &model.terms[ti]
			if tm.isCat {
				tm.cat.PredictLabelBatch(c.test.X, labels)
			} else {
				tm.real.PredictBatch(c.test.X, preds)
			}
			for s := 0; s < n; s++ {
				sample := c.test.Sample(s)
				var batch, alone float64
				if tm.isCat {
					batch, alone = float64(labels[s]), float64(predictLabelRow(tm.cat, sample))
				} else {
					batch, alone = preds[s], predictRow(tm.real, sample)
				}
				if math.Float64bits(batch) != math.Float64bits(alone) {
					t.Errorf("%s term %d sample %d: in the batch %v, alone %v", c.name, ti, s, batch, alone)
				}
				want := 0.0
				if v := sample[tm.term.Target]; !dataset.IsMissing(v) {
					if tm.isCat {
						want = tm.scoreCat(v, labels[s])
					} else {
						want = tm.scoreReal(v, preds[s])
					}
				}
				if got := ss.PerTerm.At(ti, s); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s term %d sample %d: ScoreDataset %v, predictions scored %v", c.name, ti, s, got, want)
				}
			}
		}
	}
}

// rowScratch predicts one row: the row as a one-row matrix and the output
// slots. Pooled, so the gather reference's held-out predictions stay
// allocation-free.
type rowScratch struct {
	x     linalg.Matrix
	pred  [1]float64
	label [1]int
}

var rowPool = sync.Pool{New: func() any { return new(rowScratch) }}

func getRow(row []float64) *rowScratch {
	rs := rowPool.Get().(*rowScratch)
	rs.x = linalg.Matrix{Rows: 1, Cols: len(row), Data: row}
	return rs
}

func putRow(rs *rowScratch) {
	rs.x.Data = nil
	rowPool.Put(rs)
}

// predictRow predicts one row.
func predictRow(p RealPredictor, row []float64) float64 {
	rs := getRow(row)
	p.PredictBatch(&rs.x, rs.pred[:])
	v := rs.pred[0]
	putRow(rs)
	return v
}

// predictLabelRow classifies one row.
func predictLabelRow(p CatPredictor, row []float64) int {
	rs := getRow(row)
	p.PredictLabelBatch(&rs.x, rs.label[:])
	v := rs.label[0]
	putRow(rs)
	return v
}
