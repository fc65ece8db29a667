package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/resource"
	"frac/internal/rng"
	"frac/internal/svm"
	"frac/internal/tree"
)

// randomRealDataset builds an all-real dataset with correlated columns and a
// configurable missingness pattern: each column independently becomes a
// "holey" column with probability colMissP, and a holey column drops each
// cell with probability cellMissP. Terms whose target is holey train over
// the observed rows only, so one dataset exercises fully and partially
// observed targets side by side.
func randomRealDataset(name string, n, f int, colMissP, cellMissP float64, src *rng.Source) *dataset.Dataset {
	schema := make(dataset.Schema, f)
	for j := range schema {
		schema[j] = dataset.Feature{Name: "r", Kind: dataset.Real}
	}
	d := dataset.New(name, schema, n)
	base := make([]float64, n)
	for i := range base {
		base[i] = src.Normal(0, 1)
	}
	holey := make([]bool, f)
	for j := range holey {
		holey[j] = src.Bernoulli(colMissP)
	}
	for i := 0; i < n; i++ {
		s := d.Sample(i)
		for j := range s {
			// Half the columns track a shared latent signal so the SVR terms
			// have something to learn; the rest are noise.
			if j%2 == 0 {
				s[j] = base[i]*(1+0.1*float64(j)) + src.Normal(0, 0.3)
			} else {
				s[j] = src.Normal(0, 1)
			}
			if holey[j] && src.Bernoulli(cellMissP) {
				s[j] = dataset.Missing
			}
		}
	}
	return d
}

// wideTrainTest is a wide all-real fixture (12 rows, 30 features, n < f−1)
// whose full model has Gram-routed terms next to primal ones (targets with
// holes), and test rows with missing cells.
func wideTrainTest() (*dataset.Dataset, *dataset.Dataset) {
	src := rng.New(0x31de)
	return randomRealDataset("wide-train", 12, 30, 0.3, 0.2, src), randomRealDataset("wide-test", 9, 30, 0.3, 0.2, src)
}

// inCoreWirings runs one variant's wiring over train/test, drawing its
// random choices from a fresh stream of seed so two calls agree. gram
// reports, term by term, which of the run's terms the Gram route trains.
var inCoreWirings = []struct {
	name string
	run  func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error)
	gram func(train *dataset.Dataset, seed uint64, terms []Term) []bool
}{
	{"full", func(train, test *dataset.Dataset, _ uint64, cfg Config) (*Result, error) {
		return Run(train, test, FullTerms(train.NumFeatures()), cfg)
	}, gramShapedTerms},
	{"diverse", func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error) {
		return RunDiverse(train, test, 0.5, 2, rng.New(seed), cfg)
	}, gramShapedTerms},
	{"partial", func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error) {
		res, _, err := RunPartialFiltered(train, test, RandomFilter, 0.5, rng.New(seed), cfg)
		return res, err
	}, gramShapedTerms},
	{"jl", func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error) {
		return RunJL(train, test, JLSpec{Dim: jlTestDim(train, seed)}, rng.New(seed), cfg)
	}, func(train *dataset.Dataset, seed uint64, terms []Term) []bool {
		// The projected set is fully observed and every term is all but
		// one, so the shape decides for all terms at once.
		wide := train.NumSamples() < jlTestDim(train, seed)-1
		out := make([]bool, len(terms))
		for i := range out {
			out[i] = wide
		}
		return out
	}},
}

// jlTestDim is the JL wiring's projected width: narrow for a narrow
// training set, and as wide as the raw space for a wide one, so both routes
// run in JL space too.
func jlTestDim(train *dataset.Dataset, seed uint64) int {
	if train.NumSamples() < train.NumFeatures()-1 {
		return train.NumFeatures() + int(seed%3)
	}
	return 2 + int(seed%5)
}

// gramShapedTerms reports which terms over train the Gram route takes,
// restating its rule on its own: fewer rows than inputs, inputs that are all
// f−1 other features, and a target observed on every row.
func gramShapedTerms(train *dataset.Dataset, _ uint64, terms []Term) []bool {
	n, f := train.NumSamples(), train.NumFeatures()
	out := make([]bool, len(terms))
	for i, t := range terms {
		if n >= f-1 || len(t.Inputs) != f-1 {
			continue
		}
		out[i] = true
		for r := 0; r < n; r++ {
			if dataset.IsMissing(train.X.At(r, t.Target)) {
				out[i] = false
			}
		}
	}
	return out
}

// gramTolerance bounds how far a Gram-routed term's score may sit from the
// reference's, relative to the larger magnitude: the two routes take the
// same solver steps and differ only in rounding.
const gramTolerance = 1e-9

// TestInCoreTrainingBitIdentical is the in-core trainer's equivalence
// property: for random shapes, seeds, missingness patterns, fold counts,
// error models and worker counts, over the full, diverse (two predictors per
// feature), partial-filter and JL-projected wirings, the default learners
// reproduce the per-term scores of the frozen reference route. Terms on the
// primal route match EXACTLY (Float64bits). Terms on the Gram route — the
// wide trials (n < f−1) make many, next to primal terms whose target has
// holes — match to gramTolerance: the Gram form sums the same products in
// another order. The counters prove that the Gram route, the primal route
// and the reference route all ran and that each took exactly the terms the
// shape rule gives it, so the property cannot hold vacuously.
func TestInCoreTrainingBitIdentical(t *testing.T) {
	meta := rng.New(0xd151_dead)
	var gramTerms, primalTerms, refTerms int64
	worst := 0.0
	for trial := 0; trial < 36; trial++ {
		wiring := inCoreWirings[trial%len(inCoreWirings)]
		n := 8 + meta.IntN(32)
		f := 2 + meta.IntN(10)
		colMissP := []float64{0, 0.3, 0.6}[trial%3]
		if trial >= 24 { // wide: fewer rows than a full term has inputs
			n = 8 + meta.IntN(8)
			f = n + 2 + meta.IntN(10)
			colMissP = []float64{0, 0.3}[trial%2]
		}
		folds := []int{2, 3, 5}[meta.IntN(3)]
		seed, wseed := meta.Uint64(), meta.Uint64()
		src := rng.New(meta.Uint64())
		train := randomRealDataset("prop-train", n, f, colMissP, 0.2, src)
		test := randomRealDataset("prop-test", 6, f, colMissP, 0.2, src)

		cfg := Config{Seed: seed, CVFolds: folds, KDEError: trial%2 == 1, Workers: 1 + meta.IntN(4)}
		inRec, refRec := obs.New(), obs.New()
		cfgIn := cfg
		cfgIn.Obs = inRec
		inCore, err := wiring.run(train, test, wseed, cfgIn)
		if err != nil {
			t.Fatalf("trial %d %s in-core run: %v", trial, wiring.name, err)
		}
		cfgRef := cfg
		cfgRef.Obs = refRec
		cfgRef.Learners = referenceLearners()
		ref, err := wiring.run(train, test, wseed, cfgRef)
		if err != nil {
			t.Fatalf("trial %d %s reference run: %v", trial, wiring.name, err)
		}

		if inCore.PerTerm.Rows != ref.PerTerm.Rows {
			t.Fatalf("trial %d %s: %d terms, reference %d", trial, wiring.name, inCore.PerTerm.Rows, ref.PerTerm.Rows)
		}
		gram := wiring.gram(train, wseed, inCore.Terms)
		var wantGram int64
		for ti := 0; ti < ref.PerTerm.Rows; ti++ {
			got, want := inCore.PerTerm.Row(ti), ref.PerTerm.Row(ti)
			for s := range got {
				if gram[ti] {
					gap := math.Abs(got[s]-want[s]) / math.Max(math.Abs(got[s]), math.Abs(want[s]))
					if got[s] == want[s] {
						gap = 0
					}
					worst = math.Max(worst, gap)
					if !(gap <= gramTolerance) {
						t.Fatalf("trial %d %s (n=%d f=%d folds=%d) Gram-routed term %d sample %d: in-core %v, reference %v (relative gap %.3g)",
							trial, wiring.name, n, f, folds, ti, s, got[s], want[s], gap)
					}
					continue
				}
				if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
					t.Fatalf("trial %d %s (n=%d f=%d folds=%d) term %d sample %d: in-core %v (bits %016x), reference %v (bits %016x)",
						trial, wiring.name, n, f, folds, ti, s,
						got[s], math.Float64bits(got[s]), want[s], math.Float64bits(want[s]))
				}
			}
			if gram[ti] {
				wantGram++
			}
		}
		// Both routes must have trained the same non-marginal terms, each
		// its own way: all-real data leaves nothing for the gather loop in
		// the default run, and the Gram route took exactly the terms the
		// shape rule names.
		inCoreTerms, trialRef := inRec.Count(obs.CounterTermsMasked), refRec.Count(obs.CounterTermsGathered)
		if inCoreTerms == 0 || inCoreTerms != trialRef {
			t.Fatalf("trial %d %s: %d in-core terms, %d reference terms — both must be equal and non-zero",
				trial, wiring.name, inCoreTerms, trialRef)
		}
		if got := inRec.Count(obs.CounterTermsGram); got != wantGram {
			t.Fatalf("trial %d %s (n=%d f=%d): %d terms took the Gram route, the shape rule gives %d",
				trial, wiring.name, n, f, got, wantGram)
		}
		if got := inRec.Count(obs.CounterTermsGathered); got != 0 {
			t.Errorf("trial %d %s: %d real terms took the gather loop with Learners.SVR set", trial, wiring.name, got)
		}
		if got := refRec.Count(obs.CounterTermsMasked); got != 0 {
			t.Errorf("trial %d %s: %d terms trained in core with Learners.SVR nil", trial, wiring.name, got)
		}
		// Every in-core term made one fit per fold plus its final fit.
		if got, want := inRec.Count(obs.CounterSVRFits), int64(folds+1)*inCoreTerms; got != want {
			t.Errorf("trial %d %s: %d SVR fits, want (%d folds + 1) x %d terms = %d", trial, wiring.name, got, folds, inCoreTerms, want)
		}
		if fits, epochs := inRec.Count(obs.CounterSVRFits), inRec.Count(obs.CounterSVREpochs); epochs < fits {
			t.Errorf("trial %d %s: %d epochs over %d fits", trial, wiring.name, epochs, fits)
		}
		gramTerms += wantGram
		primalTerms += inCoreTerms - wantGram
		refTerms += trialRef
	}
	if gramTerms == 0 || primalTerms == 0 || refTerms == 0 {
		t.Fatalf("%d Gram-routed, %d primal and %d reference terms: every route must run", gramTerms, primalTerms, refTerms)
	}
	t.Logf("%d Gram-routed terms (worst relative gap %.3g), %d primal terms bit-identical", gramTerms, worst, primalTerms)
}

// TestInCoreTrainingWorkerInvariance: with the in-core trainer (default),
// scores stay bit-identical across worker counts, on the mixed-schema
// golden fixture (primal route) and on a wide all-real fixture where most
// terms take the Gram route — per-worker scratch and the shared Gram state
// must not introduce any scheduling-dependent state.
func TestInCoreTrainingWorkerInvariance(t *testing.T) {
	goldenTrain, goldenTest := goldenTrainTest()
	src := rng.New(0x9a3)
	wideTrain := randomRealDataset("wide-train", 14, 40, 0.3, 0.2, src)
	wideTest := randomRealDataset("wide-test", 6, 40, 0.3, 0.2, src)
	for _, fx := range []struct {
		name        string
		train, test *dataset.Dataset
		gram        bool
	}{{"golden", goldenTrain, goldenTest, false}, {"wide", wideTrain, wideTest, true}} {
		terms := FullTerms(fx.train.NumFeatures())
		run := func(workers int) (*Result, *obs.Recorder) {
			t.Helper()
			rec := obs.New()
			res, err := Run(fx.train, fx.test, terms, Config{Seed: 42, Workers: workers, Obs: rec})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", fx.name, workers, err)
			}
			return res, rec
		}
		ref, refRec := run(1)
		masked, gram := refRec.Count(obs.CounterTermsMasked), refRec.Count(obs.CounterTermsGram)
		if masked == 0 {
			t.Fatalf("%s fixture did not engage the in-core trainer", fx.name)
		}
		if fx.gram != (gram > 0) || (fx.gram && gram == masked) {
			t.Fatalf("%s fixture: %d of %d in-core terms took the Gram route", fx.name, gram, masked)
		}
		if refRec.Count(obs.CounterDesignCacheBytes) == 0 {
			t.Errorf("%s: scratch growth not reported", fx.name)
		}
		for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
			got, rec := run(w)
			if rec.Count(obs.CounterTermsMasked) != masked || rec.Count(obs.CounterTermsGram) != gram {
				t.Errorf("%s workers=%d: %d in-core and %d Gram terms, want %d and %d (routing must be scheduling-independent)",
					fx.name, w, rec.Count(obs.CounterTermsMasked), rec.Count(obs.CounterTermsGram), masked, gram)
			}
			for s := range got.Scores {
				if math.Float64bits(got.Scores[s]) != math.Float64bits(ref.Scores[s]) {
					t.Errorf("%s workers=%d sample %d: %v, want %v", fx.name, w, s, got.Scores[s], ref.Scores[s])
				}
			}
		}
	}
}

// TestSolverCountersBothRoutes pins the solver counters on a fixture that
// runs both in-core routes: every term makes one fit per CV fold plus its
// final fit, and with MaxIter 1 every fit uses exactly one epoch and counts
// as stopped at MaxIter.
func TestSolverCountersBothRoutes(t *testing.T) {
	src := rng.New(0x5c)
	train := randomRealDataset("counters", 12, 30, 0.3, 0.2, src)
	for _, maxIter := range []int{0, 1} {
		rec := obs.New()
		cfg := Config{Seed: 3, CVFolds: 4, Obs: rec, Learners: MixedLearners(svm.SVRParams{MaxIter: maxIter}, tree.Params{})}
		if _, err := Train(train, FullTerms(train.NumFeatures()), cfg); err != nil {
			t.Fatal(err)
		}
		masked, gram := rec.Count(obs.CounterTermsMasked), rec.Count(obs.CounterTermsGram)
		if gram == 0 || gram == masked {
			t.Fatalf("MaxIter %d: %d of %d terms on the Gram route; the fixture must run both routes", maxIter, gram, masked)
		}
		fits, epochs, capped := rec.Count(obs.CounterSVRFits), rec.Count(obs.CounterSVREpochs), rec.Count(obs.CounterSVRMaxIter)
		if fits != (4+1)*masked {
			t.Errorf("MaxIter %d: %d fits, want (4 folds + 1) x %d terms", maxIter, fits, masked)
		}
		if maxIter == 1 && (epochs != fits || capped != fits) {
			t.Errorf("MaxIter 1: %d epochs and %d capped fits over %d fits, want all equal", epochs, capped, fits)
		}
		if maxIter == 0 && (epochs <= fits || capped >= fits) {
			t.Errorf("default MaxIter: %d epochs and %d capped fits over %d fits", epochs, capped, fits)
		}
	}
}

// TestTrainTermWithoutSharedGram: trainTerm called directly, without
// TrainCtx and so without the shared Gram state, trains a Gram-shaped term
// on the primal route, and a model of those terms scores every term as
// Train's Gram-routed model does, to rounding.
func TestTrainTermWithoutSharedGram(t *testing.T) {
	src := rng.New(0x71)
	train := randomRealDataset("direct", 10, 24, 0, 0, src)
	test := randomRealDataset("direct-test", 5, 24, 0, 0, src)
	terms := FullTerms(train.NumFeatures())
	rec := obs.New()
	cfg := Config{Seed: 8, Obs: rec}.withDefaults()
	model, err := TrainCtx(context.Background(), train, terms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Count(obs.CounterTermsGram); got != int64(len(terms)) {
		t.Fatalf("%d of %d terms on the Gram route in Train", got, len(terms))
	}
	if model.basis == nil {
		t.Fatal("a Gram-routed Train left the model no basis")
	}
	streams := termStreams(rng.New(cfg.Seed), terms)
	direct := obs.New()
	cfg.Obs = direct
	primal := &Model{cfg: cfg, schema: train.Schema, terms: make([]termModel, len(terms))}
	for ti, term := range terms {
		if primal.terms[ti], err = trainTerm(train, term, cfg, streams[ti], new(trainScratch)); err != nil {
			t.Fatal(err)
		}
		if primal.terms[ti].dual != nil || model.terms[ti].real != nil {
			t.Fatalf("term %d: the direct term is dual or Train's is not", ti)
		}
	}
	got, err := primal.ScoreDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.ScoreDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range terms {
		for s := 0; s < test.NumSamples(); s++ {
			g, w := got.PerTerm.At(ti, s), want.PerTerm.At(ti, s)
			if math.Abs(g-w) > gramTolerance*math.Max(math.Abs(g), math.Abs(w)) {
				t.Fatalf("term %d sample %d: direct %v, Train %v", ti, s, g, w)
			}
		}
	}
	if direct.Count(obs.CounterTermsGram) != 0 || direct.Count(obs.CounterTermsMasked) != int64(len(terms)) {
		t.Errorf("direct trainTerm: %d Gram and %d in-core terms, want 0 and %d",
			direct.Count(obs.CounterTermsGram), direct.Count(obs.CounterTermsMasked), len(terms))
	}
}

// TestSVRAccountedPeak: SVR terms charge their scratch as one reservation
// per worker at the widest SVR term's size (a primal term's m x |inputs|
// design, a Gram term's n x n Gram), held across the term fan-out, so the
// accounted peak of a Train with SVR terms is exact: the shared state, the
// reservation and the model, at 1, 2 and 4 workers and in every run, never
// depending on which terms overlap. The golden fixture mixes primal SVR
// and tree terms; the wide one mixes primal and Gram-routed SVR terms.
func TestSVRAccountedPeak(t *testing.T) {
	golden, _ := goldenTrainTest()
	wide, _ := wideTrainTest()
	for _, c := range []struct {
		name  string
		train *dataset.Dataset
	}{{"golden", golden}, {"wide", wide}} {
		train, n, f := c.train, c.train.NumSamples(), c.train.NumFeatures()
		terms := FullTerms(f)
		// The widest SVR term, restated: real targets with enough observed
		// rows, a Gram when the target is fully observed and n < f−1.
		var widest int64
		svrTerms := 0
		for _, term := range terms {
			m := 0
			for i := 0; i < n; i++ {
				if !dataset.IsMissing(train.X.At(i, term.Target)) {
					m++
				}
			}
			if train.Schema[term.Target].Kind == dataset.Categorical || m < minObserved {
				continue
			}
			svrTerms++
			b := int64(m) * int64(f-1) * 8
			if m == n && n < f-1 {
				b = int64(n) * int64(n) * 8
			}
			widest = max(widest, b)
		}
		for _, w := range []int{1, 2, 4} {
			cfg := Config{Seed: 3, Workers: w}.withDefaults()
			var shared int64
			if needsGram(train, terms, cfg) {
				g, err := buildGram(context.Background(), train, cfg)
				if err != nil {
					t.Fatal(err)
				}
				shared += g.bytes()
			}
			if needsDesign(train, terms, cfg) {
				shared += tree.NewDesign(train.X, train.Schema).Bytes()
			}
			reserve := int64(min(w, svrTerms)) * widest
			for run := 0; run < 3; run++ {
				cfg.Tracker = resource.NewTracker()
				m, err := Train(train, terms, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := cfg.Tracker.PeakBytes(), shared+reserve+m.Bytes(); got != want {
					t.Errorf("%s workers=%d run %d: accounted peak %d bytes, want shared %d + SVR scratch %d + model %d = %d",
						c.name, w, run, got, shared, reserve, m.Bytes(), want)
				}
			}
		}
	}
}
