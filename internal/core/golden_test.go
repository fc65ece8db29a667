package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"frac/internal/dataset"
	"frac/internal/rng"
	"frac/internal/tree"
)

// goldenTrainTest builds a deterministic mixed-schema train/test pair that
// exercises every scoring path: SVR terms, tree terms, marginal fallbacks,
// missing inputs, and missing targets.
func goldenTrainTest() (*dataset.Dataset, *dataset.Dataset) {
	schema := dataset.Schema{
		{Name: "r0", Kind: dataset.Real},
		{Name: "r1", Kind: dataset.Real},
		{Name: "r2", Kind: dataset.Real},
		{Name: "c0", Kind: dataset.Categorical, Arity: 3},
		{Name: "c1", Kind: dataset.Categorical, Arity: 2},
	}
	train := dataset.New("train", schema, 24)
	// Hand-rolled LCG so the fixture never depends on library RNG evolution.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < 24; i++ {
		s := train.Sample(i)
		u := next()
		s[0] = u*4 - 2
		s[1] = 2*s[0] + 0.05*(next()-0.5)
		s[2] = math.Sin(s[0]) + 0.1*(next()-0.5)
		s[3] = float64(i % 3)
		s[4] = float64((i / 3) % 2)
		if i%7 == 0 {
			s[2] = dataset.Missing
		}
		if i%11 == 0 {
			s[3] = dataset.Missing
		}
	}
	test := dataset.New("test", schema, 6)
	for i := 0; i < 6; i++ {
		s := test.Sample(i)
		u := next()
		s[0] = u*4 - 2
		s[1] = 2 * s[0]
		s[2] = math.Sin(s[0])
		s[3] = float64(i % 3)
		s[4] = float64(i % 2)
	}
	// One sample that violates the relationships, one with missing values,
	// one with an out-of-schema categorical value.
	test.Sample(1)[1] = -5
	test.Sample(2)[2] = dataset.Missing
	test.Sample(3)[0] = dataset.Missing
	test.Sample(4)[3] = 7
	return train, test
}

// goldenCases pins the exact scores of fixed-seed runs. The values have
// been re-pinned three times: once when per-term RNG streams moved from
// position-based to identity-based derivation (StreamAt keyed on the term's
// original feature index); once when the linalg kernels adopted the frozen
// 4-wide lane order (DESIGN.md §12) — reassociation moves wide-row dot
// products by a few ulps, so only the paper-learners case (design width
// ≥ 4) shifted; the tree case and the narrow ensemble fixture were
// unaffected; and once when a Train began drawing one set of CV folds for
// all its terms (now fitSchedule: the partition depends on the Train seed
// and the number of observed target rows, no longer on the term's
// stream), which moves every case's error models. The Gram route, which that fold policy
// enables, cannot touch these fixtures: they have 24 training rows and 5
// features, so n ≥ f−1 and every SVR term takes the primal route; the
// re-pinned values are exactly those of a build with only the fold policy.
// AUC stayed within the replicate SD on every Table II set
// (eval.TestFullRunAUCGate). The concurrent runtime must reproduce these
// bit for bit at every worker count (same seed → identical scores).
var goldenCases = []struct {
	name   string
	cfg    Config
	scores []uint64 // math.Float64bits of each test sample's NS
}{
	{name: "paper-learners", cfg: Config{Seed: 42}, scores: []uint64{
		0xc01d436356dbb6aa, // -7.31580863681817
		0x40879611426fbfbc, // 754.7584274988544
		0xc0122fa8aa9fafb7, // -4.546541849132999
		0xbff9fc66d988f5fe, // -1.6241215226613117
		0xc013e358d1ac75cd, // -4.972018505240567
		0xc016542ad6145abf, // -5.582194657318438
	}},
	{name: "tree-learners-kde", cfg: Config{Seed: 7, KDEError: true, Entropy: KDEEntropy, Learners: Learners{}}, scores: []uint64{
		0xc01e2c03c03b4d8e, // -7.542983058566632
		0x408ab25e156e1ad8, // 854.2959393121664
		0xc0132a47ed042978, // -4.791290000323322
		0x40254fb4be652316, // 10.655675840230781
		0xc018cf3a704a9d05, // -6.202371363214529
		0xc014ebffc77cbebf, // -5.2304679078949325
	}},
}

func init() {
	goldenCases[1].cfg.Learners = TreeLearners(tree.Params{MinLeaf: 1})
}

func TestGoldenScoresFixedSeed(t *testing.T) {
	train, test := goldenTrainTest()
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(train, test, FullTerms(train.NumFeatures()), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := SanityCheckScores(res.Scores); err != nil {
				t.Fatal(err)
			}
			if tc.scores == nil {
				for _, s := range res.Scores {
					t.Logf("golden: 0x%016x, // %v", math.Float64bits(s), s)
				}
				t.Fatal("golden scores not recorded yet")
			}
			if len(res.Scores) != len(tc.scores) {
				t.Fatalf("got %d scores, want %d", len(res.Scores), len(tc.scores))
			}
			for i, s := range res.Scores {
				if math.Float64bits(s) != tc.scores[i] {
					t.Errorf("sample %d: score %v (bits 0x%016x), want bits 0x%016x",
						i, s, math.Float64bits(s), tc.scores[i])
				}
			}
		})
	}
}

// goldenEnsembleScores pins the filter-ensemble output for a fixed seed,
// re-pinned with goldenCases for the fold policy. The concurrent runtime
// must reproduce these bits at every (member parallelism, worker count)
// combination: per-member seed derivation plus the sorted deterministic
// reduction make the combined scores independent of scheduling.
var goldenEnsembleScores = []uint64{
	0xc01840cc0c98aef9, // -6.0632783859434705
	0x40b3c83caa47355a, // 5064.236973238492
	0xc01390090472453f, // -4.8906593985314535
	0x4040f6ef142cb126, // 33.929171106168994
	0xc0144cc3ff4bace3, // -5.074966420167786
	0xc010f2c12b2be8a4, // -4.237065004878023
}

func TestGoldenEnsembleScoresFixedSeed(t *testing.T) {
	train, test := goldenTrainTest()
	run := func(parallel, workers int) []float64 {
		t.Helper()
		scores, err := RunFilterEnsembleCtx(context.Background(), train, test, RandomFilter, 0.6,
			EnsembleSpec{Members: 4, Parallel: parallel}, rng.New(99), Config{Seed: 42, Workers: workers})
		if err != nil {
			t.Fatalf("parallel=%d workers=%d: %v", parallel, workers, err)
		}
		return scores
	}
	ref := run(1, 1)
	if len(goldenEnsembleScores) == 0 {
		for _, s := range ref {
			t.Logf("golden: 0x%016x, // %v", math.Float64bits(s), s)
		}
		t.Fatal("golden ensemble scores not recorded yet")
	}
	check := func(label string, scores []float64) {
		t.Helper()
		for i, s := range scores {
			if math.Float64bits(s) != goldenEnsembleScores[i] {
				t.Errorf("%s sample %d: score %v (bits 0x%016x), want bits 0x%016x",
					label, i, s, math.Float64bits(s), goldenEnsembleScores[i])
			}
		}
	}
	check("sequential", ref)
	check("parallel-members", run(4, 1))
	check("parallel-terms", run(1, 4))
	check("parallel-both", run(0, runtime.GOMAXPROCS(0)))
}
