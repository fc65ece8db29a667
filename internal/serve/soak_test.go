package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frac/internal/core"
)

// Soak coverage for hot reload (extending the PR-2 soak pattern): many
// goroutines hammer /v1/score while a reloader flips the model file in a
// loop. The invariant is "no torn responses": every response's model_hash
// must name a fully loaded model, and the scores in that response must be
// bit-identical to that exact model's offline scores — a response mixing two
// models' term contributions, or stamped with a half-swapped hash, fails.

// TestReloadSoakNoTornResponses runs the score/reload race. Run with -race:
// the batcher, handle swap, and metrics paths are all exercised
// concurrently.
func TestReloadSoakNoTornResponses(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.frac")

	// Two distinct models and their expected scores on a fixed probe.
	modelA, modelB := trainTestModel(t, 42), trainTestModel(t, 7)
	pathA, pathB := filepath.Join(dir, "a.frac"), filepath.Join(dir, "b.frac")
	writeModelFile(t, modelA, pathA)
	writeModelFile(t, modelB, pathB)
	blobA, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(blobA, blobB) {
		t.Fatal("fixture models are byte-identical; the soak needs two distinct hashes")
	}

	const probeRows = 4
	probe := testProbeRows(probeRows)
	wantByHash := map[string][]float64{}
	for _, m := range []*core.Model{modelA, modelB} {
		out := make([]float64, probeRows)
		if err := m.ScoreRowsInto(probe, out, core.NewScoreWorkspace()); err != nil {
			t.Fatal(err)
		}
		// Hash as LoadRuntime computes it: over the file bytes.
		if err := os.WriteFile(live, mustBytes(m), 0o644); err != nil {
			t.Fatal(err)
		}
		rt, err := LoadRuntime(live)
		if err != nil {
			t.Fatal(err)
		}
		wantByHash[rt.Hash()] = out
	}
	if len(wantByHash) != 2 {
		t.Fatalf("expected two distinct model hashes, got %d", len(wantByHash))
	}

	if err := os.WriteFile(live, blobA, 0o644); err != nil {
		t.Fatal(err)
	}
	ceiling := runtime.NumGoroutine() + 2

	h, err := NewHandle("m", live)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer([]*Handle{h}, ServerConfig{
		Metrics: &Metrics{},
		Batcher: BatcherConfig{MaxBatch: 8, Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	body := rowsJSON(t, probe, 0, probeRows)
	duration := 800 * time.Millisecond
	if testing.Short() {
		duration = 200 * time.Millisecond
	}
	stopAt := time.Now().Add(duration)

	// The reloader: flip the live file between A and B and hot-reload.
	var reloads atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		flip := false
		for time.Now().Before(stopAt) {
			blob := blobA
			if flip {
				blob = blobB
			}
			flip = !flip
			if err := os.WriteFile(live, blob, 0o644); err != nil {
				t.Error(err)
				return
			}
			if res := srv.ReloadHandle("m"); res.Error != "" {
				t.Errorf("reload: %s", res.Error)
				return
			}
			reloads.Add(1)
		}
	}()

	// The scorers.
	const clients = 8
	var responses atomic.Int64
	client := ts.Client()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				resp, err := client.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("score: %v", err)
					return
				}
				var doc ScoreResponse
				derr := json.NewDecoder(resp.Body).Decode(&doc)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("score status %d", resp.StatusCode)
					return
				}
				if derr != nil {
					t.Errorf("score decode: %v", derr)
					return
				}
				want, ok := wantByHash[doc.ModelHash]
				if !ok {
					t.Errorf("torn response: hash %q is not a fully loaded model", doc.ModelHash)
					return
				}
				if len(doc.Scores) != probeRows {
					t.Errorf("got %d scores", len(doc.Scores))
					return
				}
				for i, v := range doc.Scores {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Errorf("torn response: hash %s but score[%d] = %v, want %v",
							doc.ModelHash, i, v, want[i])
						return
					}
				}
				responses.Add(1)
			}
		}()
	}
	wg.Wait()

	if reloads.Load() < 2 || responses.Load() < int64(clients) {
		t.Fatalf("soak too thin: %d reloads, %d responses", reloads.Load(), responses.Load())
	}
	t.Logf("soak: %d responses across %d reloads", responses.Load(), reloads.Load())

	// Graceful shutdown: listener first, then batcher drain, then the
	// goroutine-leak check.
	ts.Close()
	srv.Close()
	settleGoroutines(t, ceiling)
}

func mustBytes(m *core.Model) []byte {
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestShutdownDrainsInFlight pins the drain contract under concurrent load:
// every submission either completes with correct scores or is rejected with
// ErrClosed — none hang, none are silently dropped, and the workers exit.
func TestShutdownDrainsInFlight(t *testing.T) {
	path := testModelFile(t, 42)
	ceiling := runtime.NumGoroutine() + 2
	h, err := NewHandle("m", path)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(h, BatcherConfig{MaxBatch: 4, Workers: 2, QueueDepth: 256})

	probe := testProbeRows(1)
	want := make([]float64, 1)
	if err := h.Runtime().ScoreInto(probe, want, core.NewScoreWorkspace()); err != nil {
		t.Fatal(err)
	}

	const n = 64
	var scored, rejected atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, 1)
			_, err := b.Submit(context.Background(), probe, out)
			switch {
			case err == nil:
				if math.Float64bits(out[0]) != math.Float64bits(want[0]) {
					t.Errorf("drained request scored %v, want %v", out[0], want[0])
				}
				scored.Add(1)
			case errors.Is(err, ErrClosed):
				rejected.Add(1)
			default:
				t.Errorf("submit: %v", err)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Close only once some submission is queued or already scored, so the
	// drain has work whatever the scheduler did with the goroutines.
	for deadline := time.Now().Add(10 * time.Second); scored.Load() == 0 && b.Depth() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("no submission reached the batcher")
		}
	}
	b.Close()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("submissions hung across Close: drain is not graceful")
	}
	if scored.Load()+rejected.Load() != n {
		t.Errorf("accounted %d+%d of %d submissions", scored.Load(), rejected.Load(), n)
	}
	if scored.Load() == 0 {
		t.Error("no submission was drained; Close rejected everything")
	}
	settleGoroutines(t, ceiling)
}
