package core

import (
	"math"
	"runtime"
	"testing"

	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/rng"
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

// inCoreWirings runs one variant's wiring over train/test, drawing its
// random choices from a fresh stream of seed so two calls agree.
var inCoreWirings = []struct {
	name string
	run  func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error)
}{
	{"full", func(train, test *dataset.Dataset, _ uint64, cfg Config) (*Result, error) {
		return Run(train, test, FullTerms(train.NumFeatures()), cfg)
	}},
	{"diverse", func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error) {
		return RunDiverse(train, test, 0.5, 2, rng.New(seed), cfg)
	}},
	{"partial", func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error) {
		res, _, err := RunPartialFiltered(train, test, RandomFilter, 0.5, rng.New(seed), cfg)
		return res, err
	}},
	{"jl", func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error) {
		return RunJL(train, test, JLSpec{Dim: 2 + int(seed%5)}, rng.New(seed), cfg)
	}},
}

// TestInCoreTrainingBitIdentical is the in-core trainer's equivalence
// property: for random shapes, seeds, missingness patterns, fold counts,
// error models and worker counts, over the full, diverse (two predictors per
// feature), partial-filter and JL-projected wirings, the default learners
// produce EXACTLY (Float64bits) the per-term scores of the reference route.
// The counters prove both routes really ran, so the property cannot hold
// vacuously.
func TestInCoreTrainingBitIdentical(t *testing.T) {
	meta := rng.New(0xd151_dead)
	for trial := 0; trial < 24; trial++ {
		wiring := inCoreWirings[trial%len(inCoreWirings)]
		n := 8 + meta.IntN(32)
		f := 2 + meta.IntN(10)
		colMissP := []float64{0, 0.3, 0.6}[trial%3]
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
		for ti := 0; ti < ref.PerTerm.Rows; ti++ {
			got, want := inCore.PerTerm.Row(ti), ref.PerTerm.Row(ti)
			for s := range got {
				if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
					t.Fatalf("trial %d %s (n=%d f=%d folds=%d) term %d sample %d: in-core %v (bits %016x), reference %v (bits %016x)",
						trial, wiring.name, n, f, folds, ti, s,
						got[s], math.Float64bits(got[s]), want[s], math.Float64bits(want[s]))
				}
			}
		}
		// Both routes must have trained the same non-marginal terms, each
		// its own way: all-real data leaves nothing for the gather loop in
		// the default run.
		inCoreTerms, refTerms := inRec.Count(obs.CounterTermsMasked), refRec.Count(obs.CounterTermsGathered)
		if inCoreTerms == 0 || inCoreTerms != refTerms {
			t.Fatalf("trial %d %s: %d in-core terms, %d reference terms — both must be equal and non-zero",
				trial, wiring.name, inCoreTerms, refTerms)
		}
		if got := inRec.Count(obs.CounterTermsGathered); got != 0 {
			t.Errorf("trial %d %s: %d real terms took the gather loop with Learners.SVR set", trial, wiring.name, got)
		}
		if got := refRec.Count(obs.CounterTermsMasked); got != 0 {
			t.Errorf("trial %d %s: %d terms trained in core with Learners.SVR nil", trial, wiring.name, got)
		}
	}
}

// TestInCoreTrainingWorkerInvariance: with the in-core trainer (default),
// scores stay bit-identical across worker counts on the mixed-schema golden
// fixture — per-worker scratch must not introduce any scheduling-dependent
// state.
func TestInCoreTrainingWorkerInvariance(t *testing.T) {
	train, test := goldenTrainTest()
	terms := FullTerms(train.NumFeatures())
	run := func(workers int) (*Result, *obs.Recorder) {
		t.Helper()
		rec := obs.New()
		res, err := Run(train, test, terms, Config{Seed: 42, Workers: workers, Obs: rec})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, rec
	}
	ref, refRec := run(1)
	if refRec.Count(obs.CounterTermsMasked) == 0 {
		t.Fatal("golden fixture did not engage the in-core trainer")
	}
	if refRec.Count(obs.CounterDesignCacheBytes) == 0 {
		t.Error("design buffer growth not reported")
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got, rec := run(w)
		if rec.Count(obs.CounterTermsMasked) != refRec.Count(obs.CounterTermsMasked) {
			t.Errorf("workers=%d: %d in-core terms, want %d (routing must be scheduling-independent)",
				w, rec.Count(obs.CounterTermsMasked), refRec.Count(obs.CounterTermsMasked))
		}
		for s := range got.Scores {
			if math.Float64bits(got.Scores[s]) != math.Float64bits(ref.Scores[s]) {
				t.Errorf("workers=%d sample %d: %v, want %v", w, s, got.Scores[s], ref.Scores[s])
			}
		}
	}
}
