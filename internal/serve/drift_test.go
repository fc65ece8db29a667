package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/drift"
	"frac/internal/linalg"
	"frac/internal/obs"
	"frac/internal/obs/httpserve"
)

// Drift-monitoring fixtures: the standard fixture train set has 24 samples,
// below drift.MinSamples, so these tests scale the same generative process
// up to 64 samples and capture a reference at train time.

// testDriftTrainSet builds the fixture training process at a size large
// enough to capture a drift reference from.
func testDriftTrainSet(n int) *dataset.Dataset {
	train := dataset.New("train", testSchema(), n)
	g := lcg(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		s := train.Sample(i)
		s[0] = g.next()*4 - 2
		s[1] = 2*s[0] + 0.05*(g.next()-0.5)
		s[2] = math.Sin(s[0]) + 0.1*(g.next()-0.5)
		s[3] = float64(i % 3)
		s[4] = float64((i / 3) % 2)
	}
	return train
}

// testDriftModelFile trains the fixture model, captures a drift reference
// from its training set, and persists the version-2 artifact.
func testDriftModelFile(t testing.TB, seed uint64) string {
	t.Helper()
	train := testDriftTrainSet(64)
	model, err := core.Train(train, core.FullTerms(train.NumFeatures()), core.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.CaptureDriftReference(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.frac")
	writeModelFile(t, model, path)
	return path
}

// conformingRows draws n rows from the training distribution (healthy
// traffic).
func conformingRows(n int, g lcg) *linalg.Matrix {
	rows := linalg.NewMatrix(n, len(testSchema()))
	for i := 0; i < n; i++ {
		s := rows.Row(i)
		s[0] = g.next()*4 - 2
		s[1] = 2*s[0] + 0.05*(g.next()-0.5)
		s[2] = math.Sin(s[0]) + 0.1*(g.next()-0.5)
		s[3] = float64(i % 3)
		s[4] = float64(i % 2)
	}
	return rows
}

// shiftedRows breaks the r0→r1 relationship on every row — a gross covariate
// shift that drives NS far above the reference.
func shiftedRows(n int, g lcg) *linalg.Matrix {
	rows := conformingRows(n, g)
	for i := 0; i < n; i++ {
		rows.Row(i)[1] += 6
	}
	return rows
}

// TestServeScoresBitIdenticalWithMonitor pins the tentpole invariant: a live
// drift monitor must not change one bit of any served score, at any batch
// partitioning.
func TestServeScoresBitIdenticalWithMonitor(t *testing.T) {
	path := testDriftModelFile(t, 42)
	rt, err := LoadRuntime(path)
	if err != nil {
		t.Fatal(err)
	}
	probe := testProbeRows(24)
	want := make([]float64, probe.Rows)
	if err := rt.ScoreInto(probe, want, core.NewScoreWorkspace()); err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{1, 2, 5, probe.Rows} {
		h, err := NewHandle("m", path)
		if err != nil {
			t.Fatal(err)
		}
		h.SetMonitor(drift.NewMonitor(h.Runtime().DriftReference(), drift.Config{WindowSize: 7}))
		ws := core.NewScoreWorkspace()
		col := drift.NewCollector()
		got := make([]float64, probe.Rows)
		for lo := 0; lo < probe.Rows; lo += batch {
			hi := lo + batch
			if hi > probe.Rows {
				hi = probe.Rows
			}
			sub := linalg.NewMatrix(hi-lo, probe.Cols)
			copy(sub.Data, probe.Data[lo*probe.Cols:hi*probe.Cols])
			if _, err := h.ScoreBatch(sub, got[lo:hi], ws, col, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("batch=%d row %d: monitored score %v != unmonitored %v",
					batch, i, got[i], want[i])
			}
		}
		if got := h.Monitor().Snapshot().Samples; got != int64(probe.Rows) {
			t.Errorf("batch=%d: monitor saw %d samples, want %d", batch, got, probe.Rows)
		}
	}
}

// TestServeDriftScoreBatchZeroAllocs guards the monitored flush path: with
// the collector and sketch warm (and no window close), scoring a batch
// through the observed path must not allocate.
func TestServeDriftScoreBatchZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	path := testDriftModelFile(t, 42)
	h, err := NewHandle("m", path)
	if err != nil {
		t.Fatal(err)
	}
	h.SetMonitor(drift.NewMonitor(h.Runtime().DriftReference(), drift.Config{WindowSize: 1 << 30}))
	probe := testProbeRows(16)
	out := make([]float64, probe.Rows)
	ws := core.NewScoreWorkspace()
	col := drift.NewCollector()
	if _, err := h.ScoreBatch(probe, out, ws, col, nil, 0); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.ScoreBatch(probe, out, ws, col, nil, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("monitored ScoreBatch allocates %.1f per batch, want 0", allocs)
	}
}

// driftHarness is a monitored single-model server with a journal-backed
// recorder and an HTTP listener.
type driftHarness struct {
	srv     *Server
	ts      *httptest.Server
	metrics *Metrics
	journal string
	closeJ  func()
}

// newDriftHarness builds the harness over the drift fixture with the given
// window size.
func newDriftHarness(t *testing.T, window int) *driftHarness {
	t.Helper()
	path := testDriftModelFile(t, 42)
	h, err := NewHandle("m", path)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := obs.OpenJournal(jpath, rec, "serve-test", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	metrics := &Metrics{}
	srv, err := NewServer([]*Handle{h}, ServerConfig{
		Metrics:  metrics,
		Recorder: rec,
		Batcher:  BatcherConfig{MaxBatch: 32},
		Drift:    DriftConfig{Window: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	var closed bool
	closeJ := func() {
		if !closed {
			closed = true
			j.Close(false, obs.Metrics{})
		}
	}
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		closeJ()
	})
	return &driftHarness{srv: srv, ts: ts, metrics: metrics, journal: jpath, closeJ: closeJ}
}

// health fetches and decodes the single-model /v1/health document.
func (dh *driftHarness) health(t *testing.T) ModelHealth {
	t.Helper()
	resp, body := get(t, dh.ts.URL+"/v1/health")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/health: %d %s", resp.StatusCode, body)
	}
	var doc HealthResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("health response %s: %v", body, err)
	}
	if len(doc.Models) != 1 {
		t.Fatalf("health lists %d models, want 1", len(doc.Models))
	}
	return doc.Models[0]
}

// scoreThrough pushes rows through the model's batcher in fixed-size chunks.
func (dh *driftHarness) scoreThrough(t *testing.T, rows *linalg.Matrix, chunk int) {
	t.Helper()
	h := dh.srv.Handle("m")
	out := make([]float64, chunk)
	for lo := 0; lo+chunk <= rows.Rows; lo += chunk {
		sub := linalg.NewMatrix(chunk, rows.Cols)
		copy(sub.Data, rows.Data[lo*rows.Cols:(lo+chunk)*rows.Cols])
		if _, err := h.batcher.Submit(context.Background(), sub, out[:chunk]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHealthEndpointDetectsShift drives the full loop: clean traffic keeps
// /v1/health green, a shift burst flips it to drifting (or beyond) with a
// drift_alarm journal annotation, and the exposition carries the
// frac_serve_drift_* families.
func TestHealthEndpointDetectsShift(t *testing.T) {
	dh := newDriftHarness(t, 64)

	if mh := dh.health(t); !mh.Monitored || mh.Status != "healthy" {
		t.Fatalf("initial health %+v, want monitored healthy", mh)
	}

	// Two clean windows: must stay healthy (false-positive guard).
	dh.scoreThrough(t, conformingRows(2*64, lcg(0xabc)), 16)
	mh := dh.health(t)
	if mh.Status != "healthy" {
		t.Fatalf("clean traffic drove health to %+v", mh)
	}
	if mh.Windows < 2 {
		t.Fatalf("only %d windows closed on clean traffic", mh.Windows)
	}
	if mh.Samples != 2*64 {
		t.Errorf("monitor saw %d samples, want %d", mh.Samples, 2*64)
	}

	// A shift burst: every row breaks the trained r0→r1 relationship.
	dh.scoreThrough(t, shiftedRows(2*64, lcg(0xdef)), 16)
	mh = dh.health(t)
	if mh.Status != "drifting" && mh.Status != "retrain_recommended" {
		t.Fatalf("shift burst left health %+v", mh)
	}
	if mh.Trigger == "" {
		t.Error("alarm fired without a trigger")
	}
	if len(mh.TopTerms) == 0 {
		t.Error("alarm fired without drift localization")
	}
	for _, th := range mh.TopTerms {
		if th.Feature == "" {
			t.Errorf("top term %d has no feature name", th.Term)
		}
	}

	// Exposition carries the drift families, labeled by model.
	debug := httptest.NewServer(httpserve.Handler(httpserve.Options{Extra: dh.metrics.Families}))
	defer debug.Close()
	resp, body := get(t, debug.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	expo := string(body)
	for _, want := range []string{
		`frac_serve_drift_state{model="m"}`,
		`frac_serve_drift_psi{model="m"}`,
		`frac_serve_drift_log_martingale{model="m"}`,
		`frac_serve_drift_windows_total{model="m"} 4`,
		`frac_serve_drift_samples_total{model="m"} 256`,
		`frac_serve_drift_ns_quantile{model="m",q="0.99"}`,
		`frac_serve_drift_top_term_shift{model="m",term=`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
	if strings.Contains(expo, `frac_serve_drift_state{model="m"} 0`) {
		t.Error("drift state gauge still reads healthy after the shift burst")
	}

	// The journal carries window annotations and the alarm transition.
	dh.closeJ()
	journal, err := os.ReadFile(dh.journal)
	if err != nil {
		t.Fatal(err)
	}
	js := string(journal)
	if !strings.Contains(js, `"key":"drift"`) {
		t.Error("journal has no drift window annotations")
	}
	if !strings.Contains(js, `"key":"drift_alarm"`) {
		t.Error("journal has no drift_alarm transition")
	}
	if !strings.Contains(js, "drift_monitor=true") {
		t.Error("serve_load annotation does not mention the monitor")
	}
}

// TestHealthEndpointUnmonitored pins the reference-less path: an artifact
// without a captured reference serves fine and reports "unmonitored".
func TestHealthEndpointUnmonitored(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	resp, body := get(t, ts.URL+"/v1/health")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/health: %d", resp.StatusCode)
	}
	var doc HealthResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Models) != 1 || doc.Models[0].Status != "unmonitored" || doc.Models[0].Monitored {
		t.Fatalf("health %s, want unmonitored", body)
	}

	// Method check.
	if resp, _ := post(t, ts.URL+"/v1/health", ``); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/health = %d, want 405", resp.StatusCode)
	}
}

// TestDriftDisabled pins the opt-out: with Drift.Disabled no monitor is
// attached even though the artifact carries a reference.
func TestDriftDisabled(t *testing.T) {
	path := testDriftModelFile(t, 42)
	h, err := NewHandle("m", path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer([]*Handle{h}, ServerConfig{Drift: DriftConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if h.Monitor() != nil {
		t.Fatal("monitor attached despite Drift.Disabled")
	}
}

// TestReloadReattachesMonitor pins the reload path: swapping in an artifact
// without a reference drops the monitor, and swapping a reference-carrying
// artifact back restores a fresh one.
func TestReloadReattachesMonitor(t *testing.T) {
	path := testDriftModelFile(t, 42)
	h, err := NewHandle("m", path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer([]*Handle{h}, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if h.Monitor() == nil {
		t.Fatal("no monitor at startup")
	}

	// Overwrite the serving path with a reference-less artifact.
	writeModelFile(t, trainTestModel(t, 7), path)
	if res := srv.ReloadHandle("m"); res.Error != "" || !res.Changed {
		t.Fatalf("reload: %+v", res)
	}
	if h.Monitor() != nil {
		t.Fatal("monitor survived a reload to a reference-less artifact")
	}

	// Restore a reference-carrying artifact: monitoring resumes fresh.
	train := testDriftTrainSet(64)
	model, err := core.Train(train, core.FullTerms(train.NumFeatures()), core.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.CaptureDriftReference(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	writeModelFile(t, model, path)
	if res := srv.ReloadHandle("m"); res.Error != "" || !res.Changed {
		t.Fatalf("reload back: %+v", res)
	}
	mon := h.Monitor()
	if mon == nil {
		t.Fatal("monitor not re-attached after reloading a reference-carrying artifact")
	}
	if snap := mon.Snapshot(); snap.Samples != 0 || snap.Windows != 0 {
		t.Errorf("re-attached monitor carries history: %+v", snap)
	}
}

// BenchmarkServeScoreDrift measures the monitored batch path (compare with
// BenchmarkServeScore: the delta is the sketch-update cost).
func BenchmarkServeScoreDrift(b *testing.B) {
	path := testDriftModelFile(b, 42)
	h, err := NewHandle("m", path)
	if err != nil {
		b.Fatal(err)
	}
	h.SetMonitor(drift.NewMonitor(h.Runtime().DriftReference(), drift.Config{WindowSize: 1 << 30}))
	probe := testProbeRows(64)
	out := make([]float64, probe.Rows)
	ws := core.NewScoreWorkspace()
	col := drift.NewCollector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ScoreBatch(probe, out, ws, col, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(probe.Rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}
