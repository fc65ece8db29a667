package core

import (
	"math"
	"testing"

	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
	"frac/internal/tree"
)

// explainProbeRows builds n deterministic probe rows over the golden
// fixture's schema, mixing clean samples, relationship violations, missing
// targets, and out-of-schema categories — the same hostile shapes the
// golden test set uses, at arbitrary batch sizes.
func explainProbeRows(n int) *linalg.Matrix {
	rows := linalg.NewMatrix(n, 5)
	state := uint64(0x2545f4914f6cdd1d)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		s := rows.Row(i)
		u := next()
		s[0] = u*4 - 2
		s[1] = 2 * s[0]
		s[2] = math.Sin(s[0])
		s[3] = float64(i % 3)
		s[4] = float64(i % 2)
		switch i % 5 {
		case 1:
			s[1] = -5 // violates r1 = 2*r0
		case 2:
			s[2] = dataset.Missing
		case 3:
			s[0] = dataset.Missing
		case 4:
			s[3] = 7 // out-of-schema category
		}
	}
	return rows
}

func trainGoldenModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	train, _ := goldenTrainTest()
	m, err := Train(train, FullTerms(train.NumFeatures()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestExplainScoresBitIdentical: turning explanation on must not move a
// single bit of any total — the contributions are captured, not recomputed.
func TestExplainScoresBitIdentical(t *testing.T) {
	m := trainGoldenModel(t, Config{Seed: 42})
	rows := explainProbeRows(37)
	plain := make([]float64, rows.Rows)
	explained := make([]float64, rows.Rows)
	ws := NewScoreWorkspace()
	if err := m.ScoreRowsInto(rows, plain, ws); err != nil {
		t.Fatal(err)
	}
	ew := NewExplainWorkspace()
	if err := m.ScoreRowsExplainedInto(rows, explained, NewScoreWorkspace(), ew, 3); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if math.Float64bits(plain[i]) != math.Float64bits(explained[i]) {
			t.Fatalf("row %d: plain %v != explained %v", i, plain[i], explained[i])
		}
	}
	if ew.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", ew.Depth())
	}
}

// TestExplainDeterministicAcrossBatches: attributions must be bit-identical
// at any batch partitioning and for models trained at any worker count or
// training route (in-core vs reference) — same contract the scores carry.
func TestExplainDeterministicAcrossBatches(t *testing.T) {
	const total = 92
	const k = 4
	rows := explainProbeRows(total)
	ref := scoreExplained(t, trainGoldenModel(t, Config{Seed: 42}), rows, []int{total}, k)
	cases := []struct {
		name    string
		cfg     Config
		batches []int
	}{
		{"batch-1", Config{Seed: 42}, []int{1}},
		{"batch-3", Config{Seed: 42}, []int{3}},
		{"batch-23", Config{Seed: 42}, []int{23}},
		{"batch-92", Config{Seed: 42}, []int{92}},
		{"workers-1", Config{Seed: 42, Workers: 1}, []int{23}},
		{"workers-7", Config{Seed: 42, Workers: 7}, []int{23}},
		{"gather-train", Config{Seed: 42, Learners: referenceLearners()}, []int{23}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := scoreExplained(t, trainGoldenModel(t, tc.cfg), rows, tc.batches, k)
			if len(got) != len(ref) {
				t.Fatalf("%d attributions, want %d", len(got), len(ref))
			}
			for i := range ref {
				if !attribBitEqual(got[i], ref[i]) {
					t.Fatalf("attribution %d: got %+v want %+v", i, got[i], ref[i])
				}
			}
		})
	}
}

// scoreExplained scores rows in batches of the given size (cycling) and
// returns the concatenated attributions of every row.
func scoreExplained(t *testing.T, m *Model, rows *linalg.Matrix, batches []int, k int) []Attribution {
	t.Helper()
	ws, ew := NewScoreWorkspace(), NewExplainWorkspace()
	var all []Attribution
	bi := 0
	for off := 0; off < rows.Rows; {
		n := batches[bi%len(batches)]
		bi++
		if off+n > rows.Rows {
			n = rows.Rows - off
		}
		batch := linalg.NewMatrix(n, rows.Cols)
		for i := 0; i < n; i++ {
			copy(batch.Row(i), rows.Row(off+i))
		}
		out := make([]float64, n)
		if err := m.ScoreRowsExplainedInto(batch, out, ws, ew, k); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			all = append(all, append([]Attribution(nil), ew.Attributions(i)...)...)
		}
		off += n
	}
	return all
}

func attribBitEqual(a, b Attribution) bool {
	return a.Orig == b.Orig && a.Target == b.Target && a.Terms == b.Terms &&
		math.Float64bits(a.Contribution) == math.Float64bits(b.Contribution) &&
		math.Float64bits(a.Observed) == math.Float64bits(b.Observed) &&
		math.Float64bits(a.Predicted) == math.Float64bits(b.Predicted)
}

// TestExplainAttributionContent pins the semantics on crafted rows: a
// violated relationship surfaces its feature on top with the observed and
// predicted values; a missing target contributes exactly 0 with Observed
// marked missing.
func TestExplainAttributionContent(t *testing.T) {
	m := trainGoldenModel(t, Config{Seed: 42})
	rows := linalg.NewMatrix(2, 5)
	copy(rows.Row(0), []float64{1.0, -5, math.Sin(1.0), 1, 1}) // r1 should be ~2.0
	copy(rows.Row(1), []float64{1.0, 2.0, dataset.Missing, 1, 1})
	out := make([]float64, 2)
	ew := NewExplainWorkspace()
	if err := m.ScoreRowsExplainedInto(rows, out, NewScoreWorkspace(), ew, 5); err != nil {
		t.Fatal(err)
	}
	top := ew.Attributions(0)[0]
	if top.Orig != 1 {
		t.Fatalf("top culprit = feature %d, want 1 (r1): %+v", top.Orig, top)
	}
	if top.Observed != -5 {
		t.Fatalf("observed = %v, want -5", top.Observed)
	}
	if math.Abs(top.Predicted-2.0) > 0.5 {
		t.Fatalf("predicted = %v, want ~2.0", top.Predicted)
	}
	if top.Contribution <= 0 {
		t.Fatalf("violation contribution = %v, want > 0", top.Contribution)
	}
	if top.Terms != 1 {
		t.Fatalf("terms = %d, want 1 under the full wiring", top.Terms)
	}
	// Row 1: find feature 2 (missing target) among its attributions.
	found := false
	for _, a := range ew.Attributions(1) {
		if a.Orig == 2 {
			found = true
			if a.Contribution != 0 {
				t.Fatalf("missing target contribution = %v, want 0", a.Contribution)
			}
			if !a.MissingObserved() {
				t.Fatalf("missing target Observed = %v, want missing marker", a.Observed)
			}
		}
	}
	if !found {
		t.Fatal("feature 2 not present in k=5 attributions")
	}
	// The attribution windows are sorted by the shared ordering.
	for s := 0; s < 2; s++ {
		as := ew.Attributions(s)
		for i := 1; i < len(as); i++ {
			if influenceLess(as[i].Contribution, as[i].Orig, as[i-1].Contribution, as[i-1].Orig) {
				t.Fatalf("row %d attributions out of order at %d: %+v", s, i, as)
			}
		}
	}
}

// TestExplainMatchesCohortRanking: summing per-sample attributions at full
// depth over a labeled cohort must reproduce RankInfluence exactly — both
// paths aggregate the same per-term contributions through origGroups and
// order with influenceLess. Exact equality holds term-group-wise because
// the full wiring has one term per feature, so both paths sum the same
// floats in the same order.
func TestExplainMatchesCohortRanking(t *testing.T) {
	train, test := goldenTrainTest()
	m, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := m.ScoreDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Terms: ss.Terms, PerTerm: ss.PerTerm, Scores: ss.Totals()}
	anomalous := []bool{false, true, false, true, true, false}
	ranked, err := RankInfluence(res, anomalous)
	if err != nil {
		t.Fatal(err)
	}
	// Per-sample attributions at full depth.
	out := make([]float64, test.NumSamples())
	ew := NewExplainWorkspace()
	if err := m.ScoreRowsExplainedInto(test.X, out, NewScoreWorkspace(), ew, test.NumFeatures()); err != nil {
		t.Fatal(err)
	}
	nA, nC := 0, 0
	for _, a := range anomalous {
		if a {
			nA++
		} else {
			nC++
		}
	}
	agg := map[int]float64{}
	for s := 0; s < test.NumSamples(); s++ {
		for _, a := range ew.Attributions(s) {
			if anomalous[s] {
				agg[a.Orig] += a.Contribution / float64(nA)
			} else {
				agg[a.Orig] -= a.Contribution / float64(nC)
			}
		}
	}
	if len(agg) != len(ranked) {
		t.Fatalf("%d aggregated features, %d ranked", len(agg), len(ranked))
	}
	for _, r := range ranked {
		if math.Abs(agg[r.Orig]-r.Delta) > 1e-12 {
			t.Fatalf("feature %d: aggregated delta %v != cohort delta %v", r.Orig, agg[r.Orig], r.Delta)
		}
	}
	// And the per-sample top-k ordering agrees with TopInfluential.
	topK, err := TopInfluential(res, anomalous, 3)
	if err != nil {
		t.Fatal(err)
	}
	type kv struct {
		orig int
		v    float64
	}
	var kvs []kv
	for o, v := range agg {
		kvs = append(kvs, kv{o, v})
	}
	for i := 0; i < len(topK); i++ {
		best := -1
		for j := range kvs {
			if best < 0 || influenceLess(kvs[j].v, kvs[j].orig, kvs[best].v, kvs[best].orig) {
				best = j
			}
		}
		if kvs[best].orig != topK[i] {
			t.Fatalf("rank %d: per-sample aggregate says %d, cohort says %d", i, kvs[best].orig, topK[i])
		}
		kvs = append(kvs[:best], kvs[best+1:]...)
	}
}

// TestExplainMultiPredictorGrouping: under a diverse wiring with several
// predictors per feature, attributions sum the feature's terms and report
// the summand count.
func TestExplainMultiPredictorGrouping(t *testing.T) {
	train, _ := goldenTrainTest()
	terms := DiverseTerms(train.NumFeatures(), 0.6, 2, rng.New(9))
	m, err := Train(train, terms, Config{Seed: 42, Learners: TreeLearners(tree.Params{})})
	if err != nil {
		t.Fatal(err)
	}
	rows := explainProbeRows(6)
	out := make([]float64, rows.Rows)
	ew := NewExplainWorkspace()
	if err := m.ScoreRowsExplainedInto(rows, out, NewScoreWorkspace(), ew, train.NumFeatures()); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < rows.Rows; s++ {
		var sum float64
		terms := 0
		for _, a := range ew.Attributions(s) {
			sum += a.Contribution
			terms += a.Terms
		}
		if terms != m.NumTerms() {
			t.Fatalf("row %d: attribution Terms sum %d != model terms %d", s, terms, m.NumTerms())
		}
		if math.Abs(sum-out[s]) > 1e-9*(1+math.Abs(out[s])) {
			t.Fatalf("row %d: attribution sum %v != total %v", s, sum, out[s])
		}
	}
}

// TestExplainSteadyStateAllocs: once workspaces have grown, explained
// scoring allocates nothing — and the plain path stays at zero with the
// explain arguments threaded through (ew nil / k 0).
func TestExplainSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts differ under -race")
	}
	m := trainGoldenModel(t, Config{Seed: 42})
	rows := explainProbeRows(23)
	out := make([]float64, rows.Rows)
	ws, ew := NewScoreWorkspace(), NewExplainWorkspace()
	// Warm up both paths.
	if err := m.ScoreRowsExplainedInto(rows, out, ws, ew, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.ScoreRowsInto(rows, out, ws); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := m.ScoreRowsExplainedInto(rows, out, ws, ew, 4); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("explained scoring allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := m.ScoreRowsInto(rows, out, ws); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("plain scoring allocates %.1f/op, want 0", n)
	}
}
