package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"frac/internal/core"
	"frac/internal/obs/httpserve"
)

// newTestServer builds a single-model server over the fixture model.
func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server, string) {
	t.Helper()
	path := testModelFile(t, 42)
	h, err := NewHandle("m", path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer([]*Handle{h}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, path
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestModelsEndpoint(t *testing.T) {
	srv, ts, _ := newTestServer(t, ServerConfig{})
	resp, body := get(t, ts.URL+"/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models: %d %s", resp.StatusCode, body)
	}
	var doc ModelsResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Models) != 1 {
		t.Fatalf("models = %+v", doc.Models)
	}
	m := doc.Models[0]
	rt := srv.Handle("m").Runtime()
	if m.Name != "m" || m.ModelHash != rt.Hash() || m.Terms != rt.NumTerms() {
		t.Errorf("model info %+v does not match runtime (hash %s, %d terms)", m, rt.Hash(), rt.NumTerms())
	}
	if len(m.Schema) != len(testSchema()) {
		t.Errorf("schema has %d features, want %d", len(m.Schema), len(testSchema()))
	}
	if m.Schema[3].Kind != "categorical" || m.Schema[3].Arity != 3 {
		t.Errorf("schema[3] = %+v, want categorical arity 3", m.Schema[3])
	}
}

// TestScoreMalformedInputs is the malformed-input hardening table: every bad
// request is a 4xx with a JSON error body, never a 5xx, never a panic.
func TestScoreMalformedInputs(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{MaxRows: 4, MaxBodyBytes: 1 << 16})
	ok := `[0.1, 0.2, 0.3, 1, 0]`
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
		{"wrong top-level type", `[1,2,3]`, http.StatusBadRequest},
		{"no rows", `{"rows":[]}`, http.StatusBadRequest},
		{"rows not arrays", `{"rows":[1,2]}`, http.StatusBadRequest},
		{"wrong arity short", `{"rows":[[1,2]]}`, http.StatusBadRequest},
		{"wrong arity long", `{"rows":[[1,2,3,4,5,6]]}`, http.StatusBadRequest},
		{"bare NaN token", `{"rows":[[NaN,0,0,0,0]]}`, http.StatusBadRequest},
		{"quoted NaN", `{"rows":[["NaN",0,0,0,0]]}`, http.StatusBadRequest},
		{"quoted Inf", `{"rows":[["+Inf",0,0,0,0]]}`, http.StatusBadRequest},
		{"string cell", `{"rows":[["x",0,0,0,0]]}`, http.StatusBadRequest},
		{"unknown model", fmt.Sprintf(`{"model":"nope","rows":[%s]}`, ok), http.StatusNotFound},
		{"too many rows", fmt.Sprintf(`{"rows":[%s,%s,%s,%s,%s]}`, ok, ok, ok, ok, ok),
			http.StatusRequestEntityTooLarge},
		{"huge body", `{"rows":[[` + strings.Repeat("1,", 40000) + `1]]}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/score", tc.body)
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Errorf("error body %q is not {\"error\": ...}", body)
			}
		})
	}

	// Happy path with a null (missing) cell still works on the same server.
	resp, body := post(t, ts.URL+"/v1/score", `{"rows":[[0.1,null,0.3,1,0]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("null-cell score: %d %s", resp.StatusCode, body)
	}

	// Method checks.
	if resp, _ := get(t, ts.URL+"/v1/score"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/score = %d, want 405", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/models", ``); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/models = %d, want 405", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/reload"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reload = %d, want 405", resp.StatusCode)
	}
}

// TestScoreNonFiniteIs422 pins the response for schema-valid rows whose
// surprisal overflows to +Inf: JSON cannot carry it, so the server reports
// 422 instead of emitting an unparsable body.
func TestScoreNonFiniteIs422(t *testing.T) {
	srv, ts, _ := newTestServer(t, ServerConfig{})

	// Find an input the model maps to a non-finite score; with a Gaussian
	// error model, (x - pred)^2 at x = 1e300 overflows.
	probe := testProbeRows(1)
	probe.Row(0)[0], probe.Row(0)[1] = 1e300, -1e300
	out := make([]float64, 1)
	if err := srv.Handle("m").Runtime().ScoreInto(probe, out, core.NewScoreWorkspace()); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(out[0], 0) && !math.IsNaN(out[0]) {
		t.Skipf("fixture model keeps 1e300 finite (score %v); nothing to pin", out[0])
	}

	resp, body := post(t, ts.URL+"/v1/score", `{"rows":[[1e300,-1e300,0,1,0]]}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("non-finite score: %d %s, want 422", resp.StatusCode, body)
	}
}

// TestScoreAfterCloseIs503 pins the shutdown contract at the HTTP layer.
func TestScoreAfterCloseIs503(t *testing.T) {
	srv, ts, _ := newTestServer(t, ServerConfig{})
	srv.Close()
	resp, body := post(t, ts.URL+"/v1/score", `{"rows":[[0.1,0.2,0.3,1,0]]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("score after close: %d %s, want 503", resp.StatusCode, body)
	}
}

func TestReloadEndpoint(t *testing.T) {
	srv, ts, path := newTestServer(t, ServerConfig{})
	oldHash := srv.Handle("m").Runtime().Hash()

	// Same bytes: reload succeeds, unchanged.
	resp, body := post(t, ts.URL+"/v1/reload", ``)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	var doc ReloadResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 || doc.Results[0].Changed || doc.Results[0].ModelHash != oldHash {
		t.Errorf("same-bytes reload = %+v, want unchanged hash %s", doc.Results, oldHash)
	}

	// New bytes: reload swaps the hash and bumps the reload counter.
	writeModelFile(t, trainTestModel(t, 7), path)
	resp, body = post(t, ts.URL+"/v1/reload?model=m", ``)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	doc = ReloadResponse{}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 || !doc.Results[0].Changed || doc.Results[0].ModelHash == oldHash {
		t.Errorf("new-bytes reload = %+v, want changed hash", doc.Results)
	}
	if got := srv.Handle("m").Reloads(); got != 2 {
		t.Errorf("reload counter = %d, want 2", got)
	}

	// Unknown model name is 404.
	if resp, _ := post(t, ts.URL+"/v1/reload?model=nope", ``); resp.StatusCode != http.StatusNotFound {
		t.Errorf("reload unknown model = %d, want 404", resp.StatusCode)
	}

	// Corrupt bytes: reload fails with 500, previous runtime keeps serving.
	curHash := srv.Handle("m").Runtime().Hash()
	writeCorruptModel(t, path)
	resp, body = post(t, ts.URL+"/v1/reload", ``)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("corrupt reload: %d %s, want 500", resp.StatusCode, body)
	}
	if srv.Handle("m").Runtime().Hash() != curHash {
		t.Error("failed reload replaced the serving runtime")
	}
	if resp, _ := post(t, ts.URL+"/v1/score", `{"rows":[[0.1,0.2,0.3,1,0]]}`); resp.StatusCode != http.StatusOK {
		t.Errorf("score after failed reload = %d, want 200", resp.StatusCode)
	}
}

func writeCorruptModel(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServeMetricsExposition drives requests through the server and checks
// the frac_serve_* families render through the debug server's /metrics
// endpoint (the -debug-addr integration).
func TestServeMetricsExposition(t *testing.T) {
	metrics := &Metrics{}
	_, ts, _ := newTestServer(t, ServerConfig{
		Metrics: metrics,
		Batcher: BatcherConfig{MaxBatch: 8},
	})
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/score", `{"rows":[[0.1,0.2,0.3,1,0]]}`)
	}
	post(t, ts.URL+"/v1/score", `{"rows":[[1]]}`) // a 400
	get(t, ts.URL+"/healthz")

	debug := httptest.NewServer(httpserve.Handler(httpserve.Options{Extra: metrics.Families}))
	defer debug.Close()
	resp, body := get(t, debug.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	expo := string(body)
	for _, want := range []string{
		`frac_serve_requests_total{endpoint="score",code="2xx"} 3`,
		`frac_serve_requests_total{endpoint="score",code="4xx"} 1`,
		`frac_serve_requests_total{endpoint="healthz",code="2xx"} 1`,
		"# TYPE frac_serve_score_seconds histogram",
		`frac_serve_rows_scored_total{model="m"} 3`,
		"# TYPE frac_serve_batch_rows histogram",
		`frac_serve_batch_rows_bucket{model="m",le=`,
		`frac_serve_flushes_total{model="m",reason=`,
		"# TYPE frac_serve_queue_wait_seconds histogram",
		`frac_serve_queue_wait_seconds_count{model="m"} 3`,
		// The live queue-depth gauge is always exported, even at zero.
		"frac_serve_queue_depth 0",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}
