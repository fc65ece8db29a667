package core_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"frac/internal/core"
	"frac/internal/obs"
	"frac/internal/rng"
)

// Soak coverage for the concurrent runtime: random mid-flight cancellations
// must never leak goroutines, corrupt results, or return anything but
// context.Canceled.

// settleGoroutines waits for the goroutine count to drop back to the given
// ceiling, failing with a full stack dump if it does not within 3 seconds.
func settleGoroutines(t *testing.T, ceiling int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= ceiling {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, ceiling %d\n%s", runtime.NumGoroutine(), ceiling, buf[:n])
}

// TestCancelReturnsPromptly pins the cancellation latency contract: a cancel
// issued mid-run must surface context.Canceled well under a second later,
// and the worker goroutines must drain. The cancel goes out once the first
// term has trained, so it lands mid-run however fast the run is.
func TestCancelReturnsPromptly(t *testing.T) {
	rep := expressionReplicate(t, 120, 47)
	ceiling := runtime.NumGoroutine() + 2

	ctx, cancel := context.WithCancel(context.Background())
	rec := obs.New()
	done := make(chan error, 1)
	go func() {
		_, err := core.RunFilterEnsembleCtx(ctx, rep.Train, rep.Test, core.RandomFilter, 0.8,
			core.EnsembleSpec{Members: 8, Parallel: 4}, rng.New(7), core.Config{Seed: 11, Workers: 4, Obs: rec})
		done <- err
	}()
	for airborne := time.Now().Add(5 * time.Second); rec.Count(obs.CounterTermsTrained) == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(airborne) {
			cancel()
			t.Fatal("no term trained within 5s")
		}
	}
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("cancel took %v, want < 1s", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	settleGoroutines(t, ceiling)
}

// TestConcurrentCancellationSoak hammers the ensemble runtime with runs that
// are canceled at random points for ~30 seconds. Every run must either
// complete with scores bit-identical to the deterministic reference (no
// partial-result corruption) or fail with context.Canceled; the goroutine
// count must return to baseline after every run.
func TestConcurrentCancellationSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rep := expressionReplicate(t, 60, 53)
	// Every soak run records telemetry, so cancellation is also soaking the
	// pool accounting: after each run — completed or abandoned mid-queue —
	// the occupancy gauges must drain to zero (no leaked in-flight state).
	run := func(ctx context.Context, rec *obs.Recorder) ([]float64, error) {
		return core.RunFilterEnsembleCtx(ctx, rep.Train, rep.Test, core.RandomFilter, 0.5,
			core.EnsembleSpec{Members: 4, Parallel: 2}, rng.New(7),
			core.Config{Seed: 11, Workers: 4, Obs: rec})
	}

	// Reference result and full-run duration, for delay spacing.
	start := time.Now()
	ref, err := run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	ceiling := runtime.NumGoroutine() + 2

	delays := rng.New(99).Stream("soak-delays")
	deadline := time.Now().Add(30 * time.Second)
	var completed, canceled int
	for iter := 0; time.Now().Before(deadline); iter++ {
		// Cancel anywhere from immediately to past the expected finish, so
		// the soak covers pre-start, mid-train, mid-score, and post-done
		// cancellation windows.
		delay := time.Duration(delays.Float64() * 1.2 * float64(full))
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		rec := obs.New()
		scores, err := run(ctx, rec)
		timer.Stop()
		cancel()
		if busy, waiting := rec.PoolGauges(); busy != 0 || waiting != 0 {
			t.Fatalf("iter %d: pool gauges leaked after run (err=%v): busy=%d waiting=%d",
				iter, err, busy, waiting)
		}
		if pm := rec.Snapshot().Pool; pm != nil && pm.Acquires != pm.Releases {
			t.Fatalf("iter %d: unbalanced pool accounting (err=%v): %d acquires vs %d releases",
				iter, err, pm.Acquires, pm.Releases)
		}
		switch {
		case err == nil:
			completed++
			if len(scores) != len(ref) {
				t.Fatalf("iter %d: %d scores, want %d", iter, len(scores), len(ref))
			}
			for s := range scores {
				if math.Float64bits(scores[s]) != math.Float64bits(ref[s]) {
					t.Fatalf("iter %d sample %d: %v (bits %016x), want %v (bits %016x)",
						iter, s, scores[s], math.Float64bits(scores[s]), ref[s], math.Float64bits(ref[s]))
				}
			}
		case errors.Is(err, context.Canceled):
			canceled++
		default:
			t.Fatalf("iter %d: unexpected error: %v", iter, err)
		}
		settleGoroutines(t, ceiling)
	}
	t.Logf("soak: %d completed, %d canceled (full run %v)", completed, canceled, full)
	if completed == 0 || canceled == 0 {
		t.Errorf("soak hit only one outcome (%d completed, %d canceled); delays are mistuned", completed, canceled)
	}
}
