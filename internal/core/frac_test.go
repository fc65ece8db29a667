package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/resource"
	"frac/internal/rng"
	"frac/internal/stats"
	"frac/internal/svm"
	"frac/internal/tree"
)

// tinyRealTrainTest builds a train set where f1 = 2*f0 exactly and a test
// set with one conforming and one violating sample.
func tinyRealTrainTest() (*dataset.Dataset, *dataset.Dataset) {
	schema := dataset.Schema{
		{Name: "f0", Kind: dataset.Real},
		{Name: "f1", Kind: dataset.Real},
	}
	train := dataset.New("train", schema, 12)
	for i := 0; i < 12; i++ {
		v := float64(i)/4 - 1.5
		train.Sample(i)[0] = v
		train.Sample(i)[1] = 2*v + 0.01*float64(i%3-1) // tiny noise
	}
	test := dataset.New("test", schema, 2)
	test.Sample(0)[0] = 0.4
	test.Sample(0)[1] = 0.8 // conforms
	test.Sample(1)[0] = 0.4
	test.Sample(1)[1] = -2.5 // violates the relationship
	test.Anomalous = []bool{false, true}
	return train, test
}

func TestNSHigherForRelationshipViolations(t *testing.T) {
	train, test := tinyRealTrainTest()
	res, err := Run(train, test, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[1] <= res.Scores[0] {
		t.Errorf("violating sample NS %v <= conforming %v", res.Scores[1], res.Scores[0])
	}
}

func TestMissingTargetContributesZero(t *testing.T) {
	train, test := tinyRealTrainTest()
	model, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	full := model.Score(test.Sample(1))
	missing := []float64{dataset.Missing, dataset.Missing}
	if got := model.Score(missing); got != 0 {
		t.Errorf("all-missing sample NS = %v, want 0 (paper's formula)", got)
	}
	// One missing target: only the other term contributes.
	half := []float64{0.4, dataset.Missing}
	hs := model.Score(half)
	if hs == 0 || hs == full {
		t.Logf("half-missing NS = %v (full %v)", hs, full)
	}
	if termScore(t, model, 1, half) != 0 {
		t.Error("term with missing target must contribute 0")
	}
}

// termScore is term ti's NS contribution to one sample, read from
// ScoreDataset's per-term matrix.
func termScore(t *testing.T, m *Model, ti int, sample []float64) float64 {
	t.Helper()
	d := dataset.New("one", m.Schema(), 1)
	copy(d.Sample(0), sample)
	ss, err := m.ScoreDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	return ss.PerTerm.At(ti, 0)
}

func TestTrainValidatesTerms(t *testing.T) {
	train, _ := tinyRealTrainTest()
	if _, err := Train(train, []Term{{Target: 5}}, Config{}); err == nil {
		t.Error("invalid term accepted")
	}
	empty := dataset.New("e", train.Schema, 0)
	if _, err := Train(empty, FullTerms(2), Config{}); err == nil {
		t.Error("empty training set accepted")
	}
}

// TestTrainRejectsBadCategoricalCells: a categorical training cell that is
// not a label of its feature, fractional or out of range, is an error
// whether the feature is a term's input or its target — not a silent
// truncation or a worker panic.
func TestTrainRejectsBadCategoricalCells(t *testing.T) {
	schema := dataset.Schema{
		{Name: "a", Kind: dataset.Categorical, Arity: 3},
		{Name: "b", Kind: dataset.Categorical, Arity: 3},
	}
	terms := []Term{{Target: 1, Orig: 1, Inputs: []int{0}}}
	for _, bad := range []float64{1.5, 5} {
		for col, role := range []string{"input", "target"} {
			train := dataset.New("train", schema, 30)
			for i := 0; i < 30; i++ {
				train.Sample(i)[0] = float64(i % 3)
				train.Sample(i)[1] = float64(i % 3)
			}
			train.Sample(4)[col] = bad
			_, err := Train(train, terms, Config{Seed: 1})
			if err == nil || !strings.Contains(err.Error(), "is not a label in [0,3)") {
				t.Errorf("%s cell %v: err = %v, want a label-range error", role, bad, err)
			}
		}
	}
}

func TestMarginalFallbackForNoInputs(t *testing.T) {
	train, test := tinyRealTrainTest()
	// Terms with no inputs: predictor falls back to the training marginal.
	terms := []Term{{Target: 0, Orig: 0}, {Target: 1, Orig: 1}}
	res, err := Run(train, test, terms, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := SanityCheckScores(res.Scores); err != nil {
		t.Fatal(err)
	}
	// The violating value (-2.5, far from the marginal) still stands out.
	if res.Scores[1] <= res.Scores[0] {
		t.Errorf("marginal fallback lost the outlier: %v vs %v", res.Scores[1], res.Scores[0])
	}
}

func TestCategoricalTermConfusionModel(t *testing.T) {
	schema := dataset.Schema{
		{Name: "a", Kind: dataset.Categorical, Arity: 2},
		{Name: "b", Kind: dataset.Categorical, Arity: 2},
	}
	train := dataset.New("train", schema, 20)
	for i := 0; i < 20; i++ {
		v := float64(i % 2)
		train.Sample(i)[0] = v
		train.Sample(i)[1] = v // b == a always
	}
	test := dataset.New("test", schema, 2)
	test.Sample(0)[0] = 1
	test.Sample(0)[1] = 1 // consistent
	test.Sample(1)[0] = 1
	test.Sample(1)[1] = 0 // violates b == a
	test.Anomalous = []bool{false, true}
	cfg := Config{Seed: 5, Learners: TreeLearners(tree.Params{MinLeaf: 1})}
	res, err := Run(train, test, FullTerms(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[1] <= res.Scores[0] {
		t.Errorf("categorical violation NS %v <= consistent %v", res.Scores[1], res.Scores[0])
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	train, test := tinyRealTrainTest()
	a, err := Run(train, test, FullTerms(2), Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(train, test, FullTerms(2), Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatal("same seed, different scores")
		}
	}
}

func TestTrackerAccountsModelAndMatrixBytes(t *testing.T) {
	train, test := tinyRealTrainTest()
	tracker := resource.NewTracker()
	_, err := Run(train, test, FullTerms(2), Config{Seed: 3, Tracker: tracker})
	if err != nil {
		t.Fatal(err)
	}
	cost := tracker.Stop()
	if cost.PeakBytes <= 0 {
		t.Error("no peak bytes recorded")
	}
	if cost.FinalBytes != 0 {
		t.Errorf("run leaked %d tracked bytes", cost.FinalBytes)
	}
	if cost.CPU <= 0 {
		t.Error("no CPU time recorded")
	}
}

func TestScoreSetTotals(t *testing.T) {
	train, test := tinyRealTrainTest()
	model, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := model.ScoreDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	totals := ss.Totals()
	for s := 0; s < test.NumSamples(); s++ {
		var sum float64
		for ti := 0; ti < ss.PerTerm.Rows; ti++ {
			sum += ss.PerTerm.At(ti, s)
		}
		if math.Abs(sum-totals[s]) > 1e-12 {
			t.Errorf("totals mismatch at %d", s)
		}
		if got := model.Score(test.Sample(s)); math.Float64bits(got) != math.Float64bits(totals[s]) {
			t.Errorf("sample %d: Score = %v, ScoreDataset total = %v", s, got, totals[s])
		}
	}
}

func TestScoreDatasetSchemaMismatch(t *testing.T) {
	train, _ := tinyRealTrainTest()
	model, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	other := dataset.New("bad", dataset.Schema{{Name: "x", Kind: dataset.Real}}, 1)
	if _, err := model.ScoreDataset(other); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestKDEErrorModelOption(t *testing.T) {
	train, test := tinyRealTrainTest()
	res, err := Run(train, test, FullTerms(2), Config{Seed: 3, KDEError: true, Entropy: KDEEntropy})
	if err != nil {
		t.Fatal(err)
	}
	if err := SanityCheckScores(res.Scores); err != nil {
		t.Fatal(err)
	}
	if res.Scores[1] <= res.Scores[0] {
		t.Errorf("KDE error model lost the violation: %v vs %v", res.Scores[1], res.Scores[0])
	}
}

func TestSanityCheckScores(t *testing.T) {
	if err := SanityCheckScores([]float64{1, -2, 0}); err != nil {
		t.Errorf("finite scores rejected: %v", err)
	}
	if err := SanityCheckScores([]float64{math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if err := SanityCheckScores([]float64{math.Inf(1)}); err == nil {
		t.Error("Inf accepted")
	}
}

func TestFeatureEntropiesMixed(t *testing.T) {
	schema := dataset.Schema{
		{Name: "const", Kind: dataset.Real},
		{Name: "spread", Kind: dataset.Real},
		{Name: "uniformCat", Kind: dataset.Categorical, Arity: 2},
		{Name: "constCat", Kind: dataset.Categorical, Arity: 2},
	}
	d := dataset.New("e", schema, 40)
	for i := 0; i < 40; i++ {
		d.Sample(i)[0] = 1
		d.Sample(i)[1] = float64(i) * 3
		d.Sample(i)[2] = float64(i % 2)
		d.Sample(i)[3] = 0
	}
	h := FeatureEntropies(d, GaussianEntropy)
	if h[1] <= h[0] {
		t.Error("spread real feature should beat constant")
	}
	if h[2] <= h[3] {
		t.Error("uniform categorical should beat constant")
	}
	if math.Abs(h[2]-math.Ln2) > 1e-9 {
		t.Errorf("uniform binary entropy = %v, want ln 2", h[2])
	}
}

func TestSelectFilter(t *testing.T) {
	schema := dataset.Schema{
		{Name: "a", Kind: dataset.Real},
		{Name: "b", Kind: dataset.Real},
		{Name: "c", Kind: dataset.Real},
		{Name: "d", Kind: dataset.Real},
	}
	d := dataset.New("e", schema, 30)
	for i := 0; i < 30; i++ {
		d.Sample(i)[0] = 0                // constant: lowest entropy
		d.Sample(i)[1] = float64(i) * 10  // widest
		d.Sample(i)[2] = float64(i)       // middle
		d.Sample(i)[3] = float64(i) * 0.1 // narrow
	}
	kept := SelectFilter(d, EntropyFilter, 0.5, rng.New(1))
	if len(kept) != 2 {
		t.Fatalf("kept %d", len(kept))
	}
	if kept[0] != 1 || kept[1] != 2 {
		t.Errorf("entropy filter kept %v, want [1 2]", kept)
	}
	rkept := SelectFilter(d, RandomFilter, 0.5, rng.New(1))
	if len(rkept) != 2 {
		t.Errorf("random filter kept %d", len(rkept))
	}
	// KeepCount bounds.
	if KeepCount(10, 0.001) != 1 || KeepCount(10, 5) != 10 {
		t.Error("KeepCount bounds wrong")
	}
}

func TestAUCOnStatsPackageIntegration(t *testing.T) {
	// Guard the score orientation convention end-to-end: higher NS is more
	// anomalous, and stats.AUC expects that orientation.
	scores := []float64{10, 1}
	if auc := stats.AUC(scores, []bool{true, false}); auc != 1 {
		t.Errorf("orientation broken: AUC %v", auc)
	}
}

func TestScoreOutOfSchemaCategory(t *testing.T) {
	schema := dataset.Schema{
		{Name: "a", Kind: dataset.Categorical, Arity: 2},
		{Name: "b", Kind: dataset.Categorical, Arity: 2},
	}
	train := dataset.New("train", schema, 20)
	for i := 0; i < 20; i++ {
		v := float64(i % 2)
		train.Sample(i)[0] = v
		train.Sample(i)[1] = v
	}
	cfg := Config{Seed: 5, Learners: TreeLearners(tree.Params{MinLeaf: 1})}
	model, err := Train(train, FullTerms(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inSchema := termScore(t, model, 1, []float64{1, 1})
	// A label outside [0, arity) must take the worst-case surprisal: at
	// least as surprising as any declared label, for integral and
	// non-integral values alike.
	for _, bad := range []float64{7, -3, 1.5} {
		got := termScore(t, model, 1, []float64{1, bad})
		if got < inSchema {
			t.Errorf("out-of-schema label %v scored %v, want >= in-schema %v", bad, got, inSchema)
		}
		worst := termScore(t, model, 1, []float64{1, 0}) // the never-seen declared label
		if got != worst {
			t.Errorf("out-of-schema label %v scored %v, want worst-case %v", bad, got, worst)
		}
	}
	// Per-sample Score must agree with the batch path on out-of-schema
	// values.
	test := dataset.New("test", schema, 2)
	copy(test.Sample(0), []float64{1, 7})
	copy(test.Sample(1), []float64{1, 1})
	ss, err := model.ScoreDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	for s, total := range ss.Totals() {
		if model.Score(test.Sample(s)) != total {
			t.Errorf("batch and per-sample disagree on sample %d", s)
		}
	}
}

// TestPlanTerms pins planTerms's route for every term of the fixtures, one
// letter per term: m marginal, t tree, p primal SVR, g Gram SVR. The
// golden set mixes primal and tree terms; the wide one (n < f−1) Gram terms
// and primal terms on targets with holes; TreeLearners routes mixed data
// to trees; the diverse wiring draws some terms no inputs; and a term with
// no inputs or with a target observed on fewer than minObserved rows is
// marginal. It pins the fit schedules too (checkSchedules), and how many
// distinct observed-row counts, and so schedules, each plan holds. A Train
// follows the plan: its route counters equal the plan's route counts. A
// term with inputs but no learner is an error, with the messages
// planTerms has always returned.
func TestPlanTerms(t *testing.T) {
	golden, _ := goldenTrainTest()
	wide, _ := wideTrainTest()
	mixed, _ := randomCatTrainTest(40, 1, 6, 3, 0.3, rng.New(0x3f))
	all := make([]int, golden.NumSamples())
	for i := range all {
		all[i] = i
	}
	sparse := golden.SelectSamples(all)
	for i := minObserved - 1; i < sparse.NumSamples(); i++ {
		sparse.X.Row(i)[1] = dataset.Missing
	}
	noInputs := FullTerms(golden.NumFeatures())
	noInputs[2].Inputs = nil
	for _, c := range []struct {
		name      string
		train     *dataset.Dataset
		terms     []Term
		learners  Learners
		want      string
		schedules int
	}{
		{"golden", golden, FullTerms(golden.NumFeatures()), PaperLearners(), "ppptt", 3},
		{"wide", wide, FullTerms(wide.NumFeatures()), PaperLearners(), "ggpgppppppgpgpgggpggggpgggggpg", 6},
		{"tree/mixed", mixed, FullTerms(mixed.NumFeatures()), TreeLearners(tree.Params{}), "ttttttttt", 4},
		{"diverse", golden, DiverseTerms(golden.NumFeatures(), 0.5, 2, rng.New(7)), PaperLearners(), "ppppppmttt", 3},
		{"no-inputs", golden, noInputs, PaperLearners(), "ppmtt", 2},
		{"too-few-observed", sparse, FullTerms(sparse.NumFeatures()), PaperLearners(), "pmptt", 3},
	} {
		cfg := Config{Seed: 5, Learners: c.learners}.withDefaults()
		plan, err := planTerms(c.train, c.terms, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := checkSchedules(t, c.name, plan, cfg); got != c.schedules {
			t.Errorf("%s: %d fit schedules, want %d", c.name, got, c.schedules)
		}
		var got strings.Builder
		counts := map[route]int64{}
		for _, p := range plan {
			got.WriteByte("mtpg"[p.route])
			counts[p.route]++
		}
		if got.String() != c.want {
			t.Errorf("%s: routes %s, want %s", c.name, got.String(), c.want)
		}
		rec := obs.New()
		if _, err := Train(c.train, c.terms, Config{Seed: 5, Learners: c.learners, Obs: rec}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gram, masked, trees := rec.Count(obs.CounterTermsGram), rec.Count(obs.CounterTermsMasked), rec.Count(obs.CounterTermsTree)
		if gram != counts[routeGram] || masked-gram != counts[routePrimal] || trees != counts[routeTree] {
			t.Errorf("%s: Train counted %d Gram, %d primal and %d tree terms, the plan %d, %d and %d",
				c.name, gram, masked-gram, trees, counts[routeGram], counts[routePrimal], counts[routeTree])
		}
	}
	for _, c := range []struct {
		learners Learners
		want     string
	}{
		{Learners{SVR: &svm.SVRParams{}}, `core: categorical feature 3 ("c0") has no learner: Learners.Tree is nil`},
		{Learners{Cat: TreeCatLearner(tree.Params{})}, `core: real feature 0 ("r0") has no learner: Learners.SVR and Learners.Tree are nil`},
	} {
		if _, err := Train(golden, FullTerms(golden.NumFeatures()), Config{Seed: 5, Learners: c.learners}); err == nil || err.Error() != c.want {
			t.Errorf("err = %v, want %q", err, c.want)
		}
	}
}

// checkSchedules pins plan's fit schedules and returns how many distinct
// ones it holds. A marginal term has none. A learned term has the schedule
// of its own observed-row count m, the very one (the same backing array)
// every other term with m observed rows has. It holds CVFolds CV fits then
// the final fit: CV fit i lists its training positions in ascending order
// and then fold i of KFold(m, CVFolds) on the seed's "folds" stream keyed
// by m, so across the CV fits every position in [0, m) is held out once;
// the final fit has fold −1, order 0…m−1 and nFit m.
func checkSchedules(t *testing.T, name string, plan []termPlan, cfg Config) int {
	t.Helper()
	first := map[int]*cvFit{}
	for ti, p := range plan {
		if p.route == routeMarginal {
			if p.fits != nil {
				t.Errorf("%s term %d: a marginal term has a fit schedule", name, ti)
			}
			continue
		}
		if len(p.fits) != cfg.CVFolds+1 {
			t.Errorf("%s term %d: %d fits, want %d CV fits and the final fit", name, ti, len(p.fits), cfg.CVFolds)
			continue
		}
		if f, ok := first[p.m]; !ok {
			first[p.m] = &p.fits[0]
		} else if f != &p.fits[0] {
			t.Errorf("%s term %d: its m = %d schedule is not the one the first term with m has", name, ti, p.m)
		}
		folds := dataset.KFold(p.m, cfg.CVFolds, rng.New(cfg.Seed).StreamAt("folds", uint64(p.m)))
		heldOut := make([]int, p.m)
		for fi, fit := range p.fits[:cfg.CVFolds] {
			train, held := fit.order[:fit.nFit], fit.order[fit.nFit:]
			seen := make([]bool, p.m)
			for _, i := range fit.order {
				seen[i] = true
			}
			if fit.fold != fi || len(fit.order) != p.m || slices.Contains(seen, false) ||
				!slices.IsSorted(train) || !slices.Equal(held, folds[fi]) {
				t.Errorf("%s term %d fit %d: fold %d, order %v (nFit %d), want its other positions ascending, then fold %v",
					name, ti, fi, fit.fold, fit.order, fit.nFit, folds[fi])
			}
			for _, h := range held {
				heldOut[h]++
			}
		}
		if slices.ContainsFunc(heldOut, func(n int) bool { return n != 1 }) {
			t.Errorf("%s term %d: positions held out %v times, want once each", name, ti, heldOut)
		}
		final := p.fits[cfg.CVFolds]
		if final.fold != -1 || final.nFit != p.m || len(final.order) != p.m ||
			slices.ContainsFunc(final.order, func(i int) bool { return final.order[i] != i }) {
			t.Errorf("%s term %d: final fit fold %d, nFit %d, order %v; want -1, %d and 0…%d", name, ti, final.fold, final.nFit, final.order, p.m, p.m-1)
		}
	}
	return len(first)
}
