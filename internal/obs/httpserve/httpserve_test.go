package httpserve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/obs/httpserve"
	"frac/internal/parallel"
	"frac/internal/rng"
	"frac/internal/synth"
)

// get fetches a path from the server and returns status, content type, body.
func get(t *testing.T, srv *httpserve.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// checkExposition is a minimal Prometheus text-format parser: every
// non-comment line must be `name[{labels}] value`, every family must have
// HELP and TYPE, and the named sample must be present with the given value.
func checkExposition(t *testing.T, text string, wantSample string, wantValue float64) {
	t.Helper()
	helped, typed := map[string]bool{}, map[string]bool{}
	found := false
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("malformed sample line %q", line)
			return
		}
		name := line[:sp]
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			return
		}
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if h := strings.TrimSuffix(family, suffix); helped[h] {
				family = h
				break
			}
		}
		if !helped[family] || !typed[family] {
			t.Errorf("sample %q has no HELP/TYPE header", name)
		}
		if name == wantSample {
			found = true
			v, _ := strconv.ParseFloat(line[sp+1:], 64)
			if v != wantValue {
				t.Errorf("%s = %v, want %v", wantSample, v, wantValue)
			}
		}
	}
	if !found {
		t.Errorf("sample %s missing from exposition:\n%s", wantSample, text)
	}
}

// TestEndpoints drives every route of the debug server against a populated
// recorder.
func TestEndpoints(t *testing.T) {
	rec := obs.New()
	rec.Add(obs.CounterTermsTrained, 5)
	rec.AddPlanned(10)
	man := obs.NewManifest("frac-test")
	man.Variant = "full"
	// The pool's occupancy reaches /progress through the recorder that
	// instruments it.
	limit := parallel.NewLimit(8).Instrument(rec)
	for i := 0; i < 3; i++ {
		if err := limit.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer limit.Release()
	}
	srv, err := httpserve.Start("127.0.0.1:0", httpserve.Options{Recorder: rec, Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if code, _, body := get(t, srv, "/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, ctype, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	checkExposition(t, body, "frac_terms_trained_total", 5)
	if !strings.Contains(body, `frac_build_info{tool="frac-test"`) {
		t.Errorf("/metrics missing build info:\n%s", body)
	}

	code, ctype, body = get(t, srv, "/progress")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/progress = %d %q", code, ctype)
	}
	var prog httpserve.Progress
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if prog.Tool != "frac-test" || prog.Variant != "full" {
		t.Errorf("progress identity = %q/%q", prog.Tool, prog.Variant)
	}
	if prog.PlannedTerms != 10 || prog.CompletedTerms != 5 || prog.Percent != 50 {
		t.Errorf("progress = %+v", prog)
	}
	if prog.PoolCapacity != 8 || prog.PoolBusy != 3 {
		t.Errorf("pool_capacity/pool_busy = %d/%d, want 8/3", prog.PoolCapacity, prog.PoolBusy)
	}

	if code, _, body := get(t, srv, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _, _ := get(t, srv, "/no-such"); code != 404 {
		t.Errorf("unknown path status %d, want 404", code)
	}
	if code, _, body := get(t, srv, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
}

// TestDisabledServer: the empty address is the off switch, and the nil
// *Server the callers then hold is inert.
func TestDisabledServer(t *testing.T) {
	srv, err := httpserve.Start("", httpserve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if srv != nil {
		t.Fatalf("empty addr returned a server: %v", srv.Addr())
	}
	if srv.Addr() != "" {
		t.Errorf("nil server Addr = %q", srv.Addr())
	}
	if err := srv.Close(); err != nil {
		t.Errorf("nil server Close: %v", err)
	}
}

// TestScrapeDuringLiveRun scrapes and parses /metrics (and /progress)
// continuously while a real instrumented FRaC train+score run is in flight —
// under -race this proves the exposition path shares no unsynchronized state
// with the hot paths.
func TestScrapeDuringLiveRun(t *testing.T) {
	p, err := synth.ProfileByName("biomarkers")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := p.Generate(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := dataset.MakeReplicates(pool, 1, 2.0/3, rng.New(1).Stream("splits"))
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]

	rec := obs.New()
	rec.SetSampleEvery(1)
	rec.EnableSpanLog(0)
	man := obs.NewManifest("frac-test")
	srv, err := httpserve.Start("127.0.0.1:0", httpserve.Options{Recorder: rec, Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The scraper must not t.Fatal (wrong goroutine): report via t.Errorf and
	// keep going, so the handoff channel always completes.
	fetch := func(path string) (string, bool) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return "", false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return "", false
		}
		return string(body), true
	}
	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			body, ok := fetch("/metrics")
			if !ok {
				continue
			}
			checkExposition(t, body, "frac_run_cancelled", 0)
			if pbody, ok := fetch("/progress"); ok && !json.Valid([]byte(pbody)) {
				t.Errorf("/progress not valid JSON during run:\n%s", pbody)
			}
			n++
		}
	}()

	limit := parallel.NewLimit(2).Instrument(rec)
	cfg := core.Config{Seed: 42, Workers: 2, Obs: rec, Limit: limit}
	deadline := time.Now().Add(30 * time.Second)
	runs := 0
	for time.Now().Before(deadline) && runs < 3 {
		if _, err := core.RunCtx(context.Background(), rep.Train, rep.Test,
			core.FullTerms(rep.Train.NumFeatures()), cfg); err != nil {
			close(stop)
			<-scraped
			t.Fatal(err)
		}
		runs++
	}
	close(stop)
	n := <-scraped
	if n == 0 {
		t.Error("scraper never completed a scrape during the run")
	}
	if rec.Count(obs.CounterTermsTrained) == 0 {
		t.Error("run recorded no work")
	}
	t.Logf("%d scrapes across %d runs", n, runs)
}

// TestServerShutdownUnblocks: Close returns promptly with no in-flight
// requests and the port stops accepting.
func TestServerShutdownUnblocks(t *testing.T) {
	srv, err := httpserve.Start("127.0.0.1:0", httpserve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Error("server still serving after Close")
	}
}
