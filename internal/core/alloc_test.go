package core

import (
	"testing"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
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
// a wiring of SVR terms and tree terms alike.
func TestScoreZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	train, test := goldenTrainTest()
	model, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sample := test.Sample(0)
	model.Score(sample) // warm up the pool
	allocs := testing.AllocsPerRun(100, func() {
		model.Score(sample)
	})
	if allocs != 0 {
		t.Errorf("Score allocates %.1f per call, want 0", allocs)
	}
}

// TestPredictBatchZeroAllocs asserts the batch prediction paths of every
// trained predictor kind allocate nothing after warm-up.
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
		in := linalg.NewMatrix(n, len(tm.term.Inputs))
		for s := 0; s < n; s++ {
			src := test.Sample(s)
			dst := in.Row(s)
			for j, c := range tm.term.Inputs {
				dst[j] = src[c]
			}
		}
		var allocs float64
		if tm.isCat {
			tm.cat.PredictLabelBatch(in, labels)
			allocs = testing.AllocsPerRun(50, func() {
				tm.cat.PredictLabelBatch(in, labels)
			})
		} else {
			tm.real.PredictBatch(in, preds)
			allocs = testing.AllocsPerRun(50, func() {
				tm.real.PredictBatch(in, preds)
			})
		}
		if allocs != 0 {
			t.Errorf("term %d (%T) batch predict allocates %.1f per batch, want 0", ti, predictorOf(tm), allocs)
		}
	}
}

// TestTrainTermSteadyStateAllocs guards the training hot path: with a warm
// per-worker scratch, training one real term allocates only what the trained
// model retains (weights, statistics, error model) plus the fold partition —
// never per-fold matrix copies or residual buffers. The masked path must
// allocate no more than the gather path it replaces; the absolute ceilings
// are generous so only a structural regression (a new per-fold allocation)
// trips them.
func TestTrainTermSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	train, _ := goldenTrainTest()
	cfg := Config{Seed: 42}.withDefaults()
	terms := FullTerms(train.NumFeatures())
	dc := buildDesignCache(train, terms, cfg)
	if dc.forTerm(0) == nil {
		t.Fatal("fixture term 0 must be masked-eligible")
	}
	src := rng.New(1)
	measure := func(label string, d *designCache) float64 {
		t.Helper()
		sc := new(trainScratch)
		if _, err := trainTerm(train, terms[0], cfg, src, sc, d); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := trainTerm(train, terms[0], cfg, src, sc, d); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/term", label, allocs)
		return allocs
	}
	masked := measure("masked", dc)
	gather := measure("gather", nil)
	if masked > gather {
		t.Errorf("masked path allocates %.1f/term, gather %.1f — masked must not allocate more", masked, gather)
	}
	if masked > 48 {
		t.Errorf("masked path allocates %.1f/term, want <= 48 (model retention, entropy estimate, fold partition)", masked)
	}
	if gather > 96 {
		t.Errorf("gather path allocates %.1f/term, want <= 96", gather)
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
	if _, err := trainTerm(train, term, cfg, src, sc, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := trainTerm(train, term, cfg, src, sc, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("marginal term allocates %.1f per training, want <= 6 (scratch residuals)", allocs)
	}
}

func predictorOf(tm *termModel) any {
	if tm.isCat {
		return tm.cat
	}
	return tm.real
}

// TestBatchMatchesPerSamplePrediction pins the batch prediction path to the
// scalar one bit for bit: ScoreDataset's per-term contributions must equal
// scoring each sample through the term's scalar Predict/PredictLabel, the
// predictors that training holdouts use.
func TestBatchMatchesPerSamplePrediction(t *testing.T) {
	train, test := goldenTrainTest()
	model, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := model.ScoreDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range model.terms {
		tm := &model.terms[ti]
		in := make([]float64, len(tm.term.Inputs))
		for s := 0; s < test.NumSamples(); s++ {
			sample := test.Sample(s)
			v := sample[tm.term.Target]
			single := 0.0
			if !dataset.IsMissing(v) {
				for j, c := range tm.term.Inputs {
					in[j] = sample[c]
				}
				if tm.isCat {
					single = tm.scoreCat(v, tm.cat.PredictLabel(in))
				} else {
					single = tm.scoreReal(v, tm.real.Predict(in))
				}
			}
			if batch := ss.PerTerm.At(ti, s); batch != single {
				t.Errorf("term %d sample %d: batch %v != per-sample %v", ti, s, batch, single)
			}
		}
	}
}

// TestImputeVecReusesBuffer guards the live dst reuse path: a buffer with
// capacity must be reused, a short one must be replaced.
func TestImputeVecReusesBuffer(t *testing.T) {
	x := []float64{1, dataset.Missing, 3}
	means := []float64{10, 20, 30}
	buf := make([]float64, 3)
	out := imputeVec(x, means, buf)
	if &out[0] != &buf[0] {
		t.Error("imputeVec did not reuse a sufficient dst")
	}
	if out[0] != 1 || out[1] != 20 || out[2] != 3 {
		t.Errorf("imputeVec = %v", out)
	}
	short := make([]float64, 1)
	out = imputeVec(x, means, short)
	if len(out) != 3 {
		t.Errorf("imputeVec len = %d, want 3", len(out))
	}
}
