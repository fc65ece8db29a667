package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"frac/internal/core"
	"frac/internal/drift"
	"frac/internal/linalg"
)

// TestServeExplainEndToEnd exercises the explain wire path: a request with
// "explain": k gets per-row attribution lists — schema'd, sorted, hash
// stamped — and the scores stay bit-identical to a plain request for the
// same rows.
func TestServeExplainEndToEnd(t *testing.T) {
	metrics := &Metrics{}
	_, ts, _ := newTestServer(t, ServerConfig{
		Metrics: metrics,
		Batcher: BatcherConfig{MaxBatch: 8, Workers: 1},
	})

	rows := `[[0.5,1.0,0.479,1,0],[0.5,-5,0.479,1,0],[0.5,null,0.479,1,0]]`
	resp, body := post(t, ts.URL+"/v1/score", `{"model":"m","rows":`+rows+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain score: %d %s", resp.StatusCode, body)
	}
	var plain ScoreResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Explanations != nil {
		t.Fatalf("plain response carries explanations: %s", body)
	}

	resp, body = post(t, ts.URL+"/v1/score", `{"model":"m","rows":`+rows+`,"explain":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explained score: %d %s", resp.StatusCode, body)
	}
	var exp ScoreResponse
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.ModelHash == "" || exp.ModelHash != plain.ModelHash {
		t.Fatalf("explained hash %q != plain hash %q", exp.ModelHash, plain.ModelHash)
	}
	for i := range plain.Scores {
		if math.Float64bits(plain.Scores[i]) != math.Float64bits(exp.Scores[i]) {
			t.Fatalf("row %d: explained score %v != plain %v", i, exp.Scores[i], plain.Scores[i])
		}
	}
	if len(exp.Explanations) != 3 {
		t.Fatalf("%d explanation rows, want 3", len(exp.Explanations))
	}
	schemaNames := map[string]bool{}
	for _, f := range testSchema() {
		schemaNames[f.Name] = true
	}
	for i, row := range exp.Explanations {
		if len(row) != 2 {
			t.Fatalf("row %d has %d attributions, want 2", i, len(row))
		}
		for j, a := range row {
			if !schemaNames[a.Feature] {
				t.Fatalf("row %d attr %d names unknown feature %q", i, j, a.Feature)
			}
			if math.IsNaN(a.Contribution) || math.IsInf(a.Contribution, 0) {
				t.Fatalf("row %d attr %d non-finite contribution", i, j)
			}
			if j > 0 && row[j].Contribution > row[j-1].Contribution {
				t.Fatalf("row %d attributions unsorted: %+v", i, row)
			}
		}
	}
	// Row 1 violates r1 = 2*r0: its top culprit is r1, with the observed
	// value echoed and a real prediction attached.
	top := exp.Explanations[1][0]
	if top.Feature != "r1" {
		t.Fatalf("violation row's top culprit = %q, want r1 (%+v)", top.Feature, top)
	}
	if top.Observed == nil || *top.Observed != -5 {
		t.Fatalf("violation row observed = %v, want -5", top.Observed)
	}
	if top.Predicted == nil {
		t.Fatalf("violation row predicted = nil, want a finite prediction")
	}
	// Row 2 has r1 missing: if r1 appears, it is null-observed with zero
	// contribution.
	for _, a := range exp.Explanations[2] {
		if a.Feature == "r1" && (a.Observed != nil || a.Contribution != 0) {
			t.Fatalf("missing r1 attribution: %+v", a)
		}
	}

	// Metrics: one explain request, three explained rows, split latency on
	// both sides, and all four explain families in the exposition.
	mm := metrics.ForModel("m")
	if got := mm.explainReqs.Load(); got != 1 {
		t.Fatalf("explain requests = %d, want 1", got)
	}
	if got := mm.explainRows.Load(); got != 3 {
		t.Fatalf("explain rows = %d, want 3", got)
	}
	if metrics.scoreSplit[0].Count() == 0 || metrics.scoreSplit[1].Count() == 0 {
		t.Fatalf("latency split not populated: off=%d on=%d",
			metrics.scoreSplit[0].Count(), metrics.scoreSplit[1].Count())
	}
	var famNames []string
	for _, f := range metrics.Families() {
		famNames = append(famNames, f.Name)
	}
	expo := strings.Join(famNames, "\n")
	for _, want := range []string{
		"frac_serve_explain_requests_total", "frac_serve_explain_rows_total",
		"frac_serve_explain_depth", "frac_serve_explain_latency_seconds",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
}

// TestServeExplainValidation pins the request bounds: negative, over-limit,
// and non-integer depths are 400s with error bodies; a depth beyond the
// feature count clamps instead of failing.
func TestServeExplainValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{
		MaxExplain: 8,
		Batcher:    BatcherConfig{Workers: 1},
	})
	row := `[[0.5,1.0,0.479,1,0]]`
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"rows":` + row + `,"explain":-1}`, http.StatusBadRequest},
		{`{"rows":` + row + `,"explain":9}`, http.StatusBadRequest},
		{`{"rows":` + row + `,"explain":1.5}`, http.StatusBadRequest},
		{`{"rows":` + row + `,"explain":"four"}`, http.StatusBadRequest},
		{`{"rows":` + row + `,"explain":8}`, http.StatusOK}, // clamped to 5 features
	} {
		resp, body := post(t, ts.URL+"/v1/score", tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s → %d, want %d (%s)", tc.body, resp.StatusCode, tc.want, body)
		}
		if tc.want == http.StatusOK {
			var doc ScoreResponse
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Explanations) != 1 || len(doc.Explanations[0]) != 5 {
				t.Fatalf("clamped depth yields %v, want 5 attributions", doc.Explanations)
			}
		} else if !strings.Contains(string(body), `"error"`) {
			t.Fatalf("%d without error body: %s", resp.StatusCode, body)
		}
	}
}

// attrBitEqual compares attributions at the bit level, so NaN observed
// values (missing cells) compare equal to themselves.
func attrBitEqual(a, b core.Attribution) bool {
	return a.Orig == b.Orig && a.Target == b.Target && a.Terms == b.Terms &&
		math.Float64bits(a.Contribution) == math.Float64bits(b.Contribution) &&
		math.Float64bits(a.Observed) == math.Float64bits(b.Observed) &&
		math.Float64bits(a.Predicted) == math.Float64bits(b.Predicted)
}

// probeChunk returns rows [off, off+n) of the shared probe generator, so
// coalesced submissions cover distinct samples.
func probeChunk(off, n int) *linalg.Matrix {
	all := testProbeRows(off + n)
	chunk := linalg.NewMatrix(n, all.Cols)
	for i := 0; i < n; i++ {
		copy(chunk.Row(i), all.Row(off+i))
	}
	return chunk
}

// heldScorer passes flushes through to Scorer, holding each one until
// release is closed. It signals started without blocking as a flush begins.
type heldScorer struct {
	Scorer
	started chan struct{}
	release chan struct{}
	flushes atomic.Int64
}

func (s *heldScorer) ScoreBatch(rows *linalg.Matrix, out []float64, ws *core.ScoreWorkspace, col *drift.Collector, ew *core.ExplainWorkspace, k int) (*Runtime, error) {
	s.flushes.Add(1)
	select {
	case s.started <- struct{}{}:
	default:
	}
	<-s.release
	return s.Scorer.ScoreBatch(rows, out, ws, col, ew, k)
}

// TestBatcherMixedExplainDepths coalesces plain and explained requests
// through one batcher and checks each request gets exactly its own depth
// with scores and attributions bit-identical to scoring its rows directly.
func TestBatcherMixedExplainDepths(t *testing.T) {
	h, err := NewHandle("m", testModelFile(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	// The single worker's first flush is held while the submissions queue,
	// so on release they coalesce into one batch.
	gate := &heldScorer{Scorer: h, started: make(chan struct{}, 1), release: make(chan struct{})}
	q := NewBatcher(gate, BatcherConfig{MaxBatch: 64, Workers: 1})
	defer q.Close()
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release()
	go q.Submit(context.Background(), probeChunk(6, 1), make([]float64, 1))
	<-gate.started

	type sub struct {
		rows *linalg.Matrix
		out  []float64
		attr [][]core.Attribution
		k    int
		err  error
	}
	subs := []*sub{
		{rows: probeChunk(0, 2), k: 0},
		{rows: probeChunk(2, 3), k: 3},
		{rows: probeChunk(5, 1), k: 1},
	}
	var wg sync.WaitGroup
	for _, s := range subs {
		s.out = make([]float64, s.rows.Rows)
		if s.k > 0 {
			s.attr = make([][]core.Attribution, s.rows.Rows)
		}
		wg.Add(1)
		go func(s *sub) {
			defer wg.Done()
			_, s.err = q.SubmitExplained(context.Background(), s.rows, s.out, s.attr, s.k)
		}(s)
	}
	awaitDepth(t, q, len(subs))
	release()
	wg.Wait()
	if n := gate.flushes.Load(); n != 2 {
		t.Fatalf("%d flushes, want the held one and one coalesced batch", n)
	}
	for i, s := range subs {
		if s.err != nil {
			t.Fatalf("submission %d: %v", i, s.err)
		}
	}
	if subs[0].attr != nil {
		t.Fatal("plain submission got attributions")
	}
	m := h.Runtime().model
	for _, s := range subs[1:] {
		for r, attr := range s.attr {
			if len(attr) != s.k {
				t.Fatalf("depth-%d submission row %d got %d attributions", s.k, r, len(attr))
			}
		}
		want := make([]float64, s.rows.Rows)
		ew := core.NewExplainWorkspace()
		if err := m.ScoreRowsExplainedInto(s.rows, want, core.NewScoreWorkspace(), ew, s.k); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < s.rows.Rows; r++ {
			if math.Float64bits(want[r]) != math.Float64bits(s.out[r]) {
				t.Fatalf("coalesced score differs at row %d", r)
			}
			ref := ew.Attributions(r)[:s.k]
			for j := range ref {
				if !attrBitEqual(ref[j], s.attr[r][j]) {
					t.Fatalf("row %d attr %d: batched %+v != direct %+v", r, j, s.attr[r][j], ref[j])
				}
			}
		}
	}
}

// TestServeExplainOffZeroAllocs proves the explain-off serve path still
// performs zero steady-state allocations with the capture arguments
// threaded through the Scorer interface.
func TestServeExplainOffZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	h, err := NewHandle("m", testModelFile(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	probe := testProbeRows(8)
	out := make([]float64, probe.Rows)
	ws := core.NewScoreWorkspace()
	if _, err := h.ScoreBatch(probe, out, ws, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		h.ScoreBatch(probe, out, ws, nil, nil, 0)
	}); allocs != 0 {
		t.Errorf("explain-off ScoreBatch allocates %.1f per batch, want 0", allocs)
	}
	// And through the batcher round trip (Submit delegates to the explain
	// path with k = 0).
	q := NewBatcher(h, BatcherConfig{MaxBatch: 8, Workers: 1})
	defer q.Close()
	ctx := context.Background()
	if _, err := q.Submit(ctx, probe, out); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		q.Submit(ctx, probe, out)
	}); allocs != 0 {
		t.Errorf("explain-off Submit allocates %.1f per request, want 0", allocs)
	}
}

// TestServeExplainJournalAnnotation checks the explain journal line format
// that fracmetrics explain parses: model, rows, k, and a top=[...] summary
// leading with the dominant culprit.
func TestServeExplainJournalAnnotation(t *testing.T) {
	h, err := NewHandle("m", testModelFile(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	rt := h.Runtime()
	rows := testProbeRows(5)
	out := make([]float64, rows.Rows)
	attr := make([][]core.Attribution, rows.Rows)
	ew := core.NewExplainWorkspace()
	if err := rt.model.ScoreRowsExplainedInto(rows, out, core.NewScoreWorkspace(), ew, 3); err != nil {
		t.Fatal(err)
	}
	for i := range attr {
		attr[i] = append([]core.Attribution(nil), ew.Attributions(i)...)
	}
	line := explainAnnotation("m", rt, attr, 3)
	if !strings.HasPrefix(line, "model=m rows=5 k=3 top=[") {
		t.Fatalf("annotation %q lacks the expected prefix", line)
	}
	// Probe row 1 is the r0↔r1 violation: both features of the broken
	// relationship spike and lead the culprit list (order between them
	// depends on which direction's predictor is more confident).
	if !strings.Contains(line, "r1:+") || !strings.Contains(line, "r0:+") {
		t.Fatalf("annotation %q does not name the violated pair r0/r1", line)
	}
	if c := strings.Count(line, ":"); c > 4 {
		t.Fatalf("annotation %q carries more than 4 culprits", line)
	}
}
