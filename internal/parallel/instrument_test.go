package parallel

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"frac/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLimitInstrumentedAccounting: under concurrent load, the instrumented
// pool's counters balance (acquires == releases), the occupancy gauges drain
// to zero, and the busy peak never exceeds capacity.
func TestLimitInstrumentedAccounting(t *testing.T) {
	rec := obs.New()
	l := NewLimit(2).Instrument(rec)
	ctx := context.Background()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Acquire(ctx); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
			l.Release()
		}()
	}
	wg.Wait()
	busy, waiting := rec.PoolGauges()
	if busy != 0 || waiting != 0 {
		t.Errorf("gauges not quiescent: busy=%d waiting=%d", busy, waiting)
	}
	m := rec.Snapshot()
	if m.Pool == nil {
		t.Fatal("pool metrics missing")
	}
	if m.Pool.Capacity != 2 {
		t.Errorf("capacity = %d, want 2", m.Pool.Capacity)
	}
	if m.Pool.Acquires != n || m.Pool.Releases != n {
		t.Errorf("acquires/releases = %d/%d, want %d/%d", m.Pool.Acquires, m.Pool.Releases, n, n)
	}
	if m.Pool.BusyPeak > 2 {
		t.Errorf("busy peak %d exceeds capacity 2", m.Pool.BusyPeak)
	}
	if m.Pool.CancelledAcquires != 0 {
		t.Errorf("cancelled = %d, want 0", m.Pool.CancelledAcquires)
	}
	// With 64 acquisitions through 2 tokens, some must have queued; every
	// blocked acquire contributes a wait observation.
	if m.Pool.QueueWait.Count != m.Pool.BlockingAcquires {
		t.Errorf("wait count %d != blocking acquires %d", m.Pool.QueueWait.Count, m.Pool.BlockingAcquires)
	}
}

// TestLimitCancelledAcquireClosesGauges is the ISSUE's pool-metric edge case:
// a queued acquire abandoned by context cancellation must close out its
// queue-wait accounting — no leaked waiting gauge, a cancelled-acquire count,
// and the partial wait recorded.
func TestLimitCancelledAcquireClosesGauges(t *testing.T) {
	rec := obs.New()
	l := NewLimit(1).Instrument(rec)
	if err := l.Acquire(context.Background()); err != nil { // hold the only token
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- l.Acquire(ctx) }()
	waitFor(t, func() bool { _, w := rec.PoolGauges(); return w == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v, want context.Canceled", err)
	}
	busy, waiting := rec.PoolGauges()
	if waiting != 0 {
		t.Errorf("waiting gauge leaked: %d, want 0", waiting)
	}
	if busy != 1 {
		t.Errorf("busy gauge = %d, want 1 (token still held)", busy)
	}
	l.Release()
	if busy, _ := rec.PoolGauges(); busy != 0 {
		t.Errorf("busy gauge = %d after release, want 0", busy)
	}
	m := rec.Snapshot()
	if m.Pool.CancelledAcquires != 1 {
		t.Errorf("cancelled acquires = %d, want 1", m.Pool.CancelledAcquires)
	}
	if m.Pool.Acquires != 1 || m.Pool.Releases != 1 {
		t.Errorf("acquires/releases = %d/%d, want 1/1", m.Pool.Acquires, m.Pool.Releases)
	}
	if m.Pool.QueueWait.Count != 1 {
		t.Errorf("queue wait count = %d, want 1 (abandoned wait recorded)", m.Pool.QueueWait.Count)
	}
}

// TestLimitStats: the live capacity/busy readout the debug server's
// /progress endpoint polls is the instrumented pool's recorder gauges.
func TestLimitStats(t *testing.T) {
	rec := obs.New()
	l := NewLimit(3).Instrument(rec)
	stats := func() (capacity, busy int64) {
		m := rec.Snapshot()
		return m.Pool.Capacity, m.Pool.Busy
	}
	if c, b := stats(); c != 3 || b != 0 {
		t.Errorf("idle stats = %d/%d, want 3/0", c, b)
	}
	ctx := context.Background()
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if c, b := stats(); c != 3 || b != 2 {
		t.Errorf("stats with 2 held = %d/%d, want 3/2", c, b)
	}
	l.Release()
	l.Release()
	if c, b := stats(); c != 3 || b != 0 {
		t.Errorf("drained stats = %d/%d, want 3/0", c, b)
	}
}

// TestLimitUninstrumented: Instrument(nil) is a no-op and the bare pool works
// unchanged — the disabled-telemetry configuration of every default run.
func TestLimitUninstrumented(t *testing.T) {
	l := NewLimit(1).Instrument(nil)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.Release()
	var rec *obs.Recorder
	l2 := NewLimit(1).Instrument(rec)
	if err := l2.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	l2.Release()
}

// TestForWorkersWithLimitTelemetry: the loop substrate drives the
// instrumented pool with balanced accounting even when a mid-loop error
// cancels remaining work.
func TestForWorkersWithLimitTelemetry(t *testing.T) {
	rec := obs.New()
	l := NewLimit(2).Instrument(rec)
	sentinel := errors.New("boom")
	err := ForWorkersWithStateErr(context.Background(), 100, 4, l,
		func(int) struct{} { return struct{}{} },
		func(i int, _ struct{}) error {
			if i == 17 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	busy, waiting := rec.PoolGauges()
	if busy != 0 || waiting != 0 {
		t.Errorf("gauges not quiescent after error stop: busy=%d waiting=%d", busy, waiting)
	}
	m := rec.Snapshot()
	if m.Pool.Acquires != m.Pool.Releases {
		t.Errorf("unbalanced pool: %d acquires vs %d releases", m.Pool.Acquires, m.Pool.Releases)
	}
}
