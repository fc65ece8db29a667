package parallel

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"frac/internal/obs"
)

// This file is the cancellable, race-clean layer of the work-distribution
// substrate: context-aware parallel-for variants that stop claiming work on
// cancellation, recover worker panics into errors instead of killing the
// process, and draw compute tokens from an optional shared Limit so nested
// fan-outs (ensemble members, variant-sweep cells) cannot oversubscribe the
// machine.

// PanicError wraps a panic recovered inside a worker goroutine. The original
// panic value and the worker's stack at recovery time are preserved so the
// failure is debuggable after it has crossed goroutine boundaries.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", e.Value, e.Stack)
}

// Limit is a counting semaphore shared across cooperating parallel loops: a
// bounded compute pool. Every unit of real work (one term training, one term
// scoring pass) holds one token while it runs, so when an ensemble fans out
// members concurrently — each with its own term loop — total in-flight
// compute stays bounded by the limit, not members x workers.
//
// Coordination-only goroutines (the per-member supervisors of an ensemble)
// must NOT hold tokens while waiting on nested loops that acquire from the
// same Limit; that would deadlock. Only leaf work acquires.
type Limit struct {
	sem chan struct{}
	// rec, when non-nil, receives pool telemetry: occupancy gauges, the
	// queue-wait histogram, and acquire/cancel counters. Telemetry observes
	// token flow without adding synchronization, so an instrumented Limit
	// schedules work exactly like a bare one.
	rec *obs.Recorder
}

// NewLimit returns a Limit admitting n concurrent token holders (< 1 means
// GOMAXPROCS).
func NewLimit(n int) *Limit {
	if n < 1 {
		n = maxWorkers()
	}
	return &Limit{sem: make(chan struct{}, n)}
}

// Instrument attaches a telemetry recorder to the pool and returns the pool
// for chaining. A nil recorder leaves the pool uninstrumented. Attach before
// sharing the Limit across goroutines.
func (l *Limit) Instrument(r *obs.Recorder) *Limit {
	if r != nil {
		l.rec = r
		r.PoolCapacity(cap(l.sem))
	}
	return l
}

// Acquire blocks until a token is available or ctx is done, returning
// ctx.Err() in the latter case.
//
// Accounting invariant: every PoolWaitBegin is closed out by exactly one of
// PoolAcquired(blocked=true) or PoolWaitAbandoned — including when a
// cancelled context abandons a queued acquire — so the waiting gauge always
// returns to zero at quiescence and abandoned queue time still lands in the
// wait histogram.
func (l *Limit) Acquire(ctx context.Context) error {
	select {
	case l.sem <- struct{}{}:
		l.rec.PoolAcquired(0, false)
		return nil
	default:
	}
	var begin time.Time
	if l.rec != nil {
		begin = time.Now()
		l.rec.PoolWaitBegin()
	}
	select {
	case l.sem <- struct{}{}:
		if l.rec != nil {
			l.rec.PoolAcquired(time.Since(begin), true)
		}
		return nil
	case <-ctx.Done():
		if l.rec != nil {
			l.rec.PoolWaitAbandoned(time.Since(begin))
		}
		return ctx.Err()
	}
}

// Release returns a token acquired with Acquire. The busy gauge decrements
// before the token frees, so observed occupancy never exceeds capacity.
func (l *Limit) Release() {
	l.rec.PoolReleased()
	<-l.sem
}

// ForWorkersErr is the cancellable, error-propagating ForWorkers: it runs
// fn(i) for every i in [0, n) on up to `workers` goroutines (< 1 means 1) and
// returns the first error encountered. Cancellation of ctx, an error return,
// or a recovered panic stops the loop from claiming further indices;
// in-flight iterations finish. Indices already dispatched always run to
// completion exactly once; indices after a stop never run.
func ForWorkersErr(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForWorkersWithStateErr(ctx, n, workers, nil,
		func(int) struct{} { return struct{}{} },
		func(i int, _ struct{}) error { return fn(i) })
}

// ForWorkersWithStateErr is ForWorkersErr for workloads that carry
// per-worker scratch: newState(w) runs once per worker goroutine before it
// processes any index, and fn receives that worker's state with every index
// it handles. A state value is only ever touched by the goroutine that
// created it, so fn may mutate it freely — this is what lets the train and
// score hot paths reuse their buffers across all the terms a worker handles.
//
// Semantics:
//   - ctx (nil means Background) is checked between iterations on every
//     worker; once done, no new index is claimed and ctx.Err() is returned.
//   - A non-nil error from fn, or a panic in fn/newState (converted to
//     *PanicError), stops the loop the same way; the first failure wins.
//   - When limit is non-nil, each fn invocation holds one token, so loops
//     sharing the Limit are jointly bounded. Workers block in Acquire but
//     wake on cancellation.
//   - Work distribution is dynamic, but fn(i) writes only to index-i state,
//     so results must not depend on scheduling — same inputs give identical
//     outputs for any worker count (see DESIGN.md §8).
func ForWorkersWithStateErr[S any](ctx context.Context, n, workers int, limit *Limit, newState func(worker int) S, fn func(i int, state S) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	done := ctx.Done()
	body := func(w int, lctx context.Context) {
		// newState runs under the same recovery as fn: a panicking state
		// constructor must not kill the process either.
		var state S
		if err := runRecovered(func() error { state = newState(w); return nil }); err != nil {
			fail(err)
			return
		}
		block := -1
		for {
			if stop.Load() {
				return
			}
			select {
			case <-done:
				fail(ctx.Err())
				return
			default:
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			// Refresh the frac_block profile label when the claimed index
			// crosses into a new 64-index block, so CPU samples localize to
			// regions of the work list. Observation only — never affects
			// which index runs where.
			if b := i / labelBlockSize; b != block {
				block = b
				pprof.SetGoroutineLabels(pprof.WithLabels(lctx, pprof.Labels(BlockLabelKey, smallInt(b))))
			}
			if limit != nil {
				if err := limit.Acquire(ctx); err != nil {
					fail(err)
					return
				}
			}
			err := runRecovered(func() error { return fn(i, state) })
			if limit != nil {
				limit.Release()
			}
			if err != nil {
				fail(err)
				return
			}
		}
	}
	// pprof.Do scopes the worker-index label (merged with any frac_phase
	// label already on ctx) and restores the goroutine's previous labels on
	// return — essential on the workers==1 path, which borrows the caller's
	// goroutine.
	labeled := func(w int) {
		pprof.Do(ctx, pprof.Labels(WorkerLabelKey, smallInt(w)), func(lctx context.Context) {
			body(w, lctx)
		})
	}
	if workers == 1 {
		labeled(0)
		return firstErr
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			labeled(w)
		}(w)
	}
	wg.Wait()
	return firstErr
}

// runRecovered invokes fn, converting a panic into a *PanicError. The token
// accounting in the loop above relies on this returning normally.
func runRecovered(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}
