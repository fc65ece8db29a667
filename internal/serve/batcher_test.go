package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frac/internal/core"
	"frac/internal/drift"
	"frac/internal/linalg"
)

// fakeScorer is a controllable Scorer: it records every flush's row count,
// optionally sleeps or blocks (to keep the single worker busy while tests
// queue more work), and scores row i of a batch as the sum of its cells.
type fakeScorer struct {
	delay time.Duration
	rt    *Runtime
	// started, when non-nil, receives one signal as each flush begins;
	// release, when non-nil, then holds the flush until the test closes it.
	started chan struct{}
	release chan struct{}

	mu      sync.Mutex
	batches []int
	rows    int
}

func (f *fakeScorer) ScoreBatch(rows *linalg.Matrix, out []float64, _ *core.ScoreWorkspace, _ *drift.Collector, _ *core.ExplainWorkspace, _ int) (*Runtime, error) {
	if f.started != nil {
		f.started <- struct{}{}
	}
	if f.release != nil {
		<-f.release
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	for i := 0; i < rows.Rows; i++ {
		s := 0.0
		for _, v := range rows.Row(i) {
			s += v
		}
		out[i] = s
	}
	f.mu.Lock()
	f.batches = append(f.batches, rows.Rows)
	f.rows += rows.Rows
	f.mu.Unlock()
	return f.rt, nil
}

func (f *fakeScorer) snapshot() (batches []int, rows int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...), f.rows
}

// oneRow builds a single-row matrix whose cell sum is v.
func oneRow(v float64) *linalg.Matrix {
	m := linalg.NewMatrix(1, 2)
	m.Data[0], m.Data[1] = v, 0
	return m
}

// submitN fires n concurrent single-row submissions and waits for all of
// them, failing on any error or wrong score.
func submitN(t *testing.T, b *Batcher, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := make([]float64, 1)
			if _, err := b.Submit(context.Background(), oneRow(float64(i)), out); err != nil {
				t.Errorf("submit %d: %v", i, err)
			} else if out[0] != float64(i) {
				t.Errorf("submit %d scored %v, want %v", i, out[0], float64(i))
			}
		}(i)
	}
	wg.Wait()
}

// TestBatcherFlushBehavior is the table-driven coalescing contract: max-wait
// fires with a partial batch, max-size flushes early (well before a long
// max-wait), an oversized request flushes whole, and MaxWait=0 serves every
// request alone.
func TestBatcherFlushBehavior(t *testing.T) {
	cases := []struct {
		name       string
		cfg        BatcherConfig
		submits    int
		rowsPer    int
		maxElapsed time.Duration // guards "flushed early, not at max-wait"
		checkBatch func(t *testing.T, batches []int)
	}{
		{
			name:       "max-wait fires with partial batch",
			cfg:        BatcherConfig{MaxBatch: 1000, MaxWait: 20 * time.Millisecond, Workers: 1},
			submits:    3,
			rowsPer:    1,
			maxElapsed: 5 * time.Second,
			checkBatch: func(t *testing.T, batches []int) {
				for _, n := range batches {
					if n >= 1000 {
						t.Errorf("batch of %d rows reached MaxBatch; the timer should have fired first", n)
					}
				}
			},
		},
		{
			name:    "max-size flushes early",
			cfg:     BatcherConfig{MaxBatch: 4, MaxWait: time.Hour, Workers: 1},
			submits: 8,
			rowsPer: 1,
			// With an hour-long max-wait, completion at all proves the size
			// trigger; the elapsed guard just keeps the failure mode finite.
			maxElapsed: 10 * time.Second,
			checkBatch: func(t *testing.T, batches []int) {
				for _, n := range batches {
					if n > 4+1 {
						t.Errorf("batch of %d rows exceeds MaxBatch", n)
					}
				}
			},
		},
		{
			name:       "oversized request flushes whole",
			cfg:        BatcherConfig{MaxBatch: 2, MaxWait: time.Hour, Workers: 1},
			submits:    1,
			rowsPer:    7,
			maxElapsed: 10 * time.Second,
			checkBatch: func(t *testing.T, batches []int) {
				if len(batches) != 1 || batches[0] != 7 {
					t.Errorf("batches = %v, want one batch of 7", batches)
				}
			},
		},
		{
			name:       "max-wait zero serves requests alone",
			cfg:        BatcherConfig{MaxBatch: 1000, MaxWait: 0, Workers: 1},
			submits:    5,
			rowsPer:    1,
			maxElapsed: 10 * time.Second,
			checkBatch: func(t *testing.T, batches []int) {
				for _, n := range batches {
					if n != 1 {
						t.Errorf("eager mode coalesced a batch of %d rows", n)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeScorer{}
			b := NewBatcher(f, tc.cfg)
			defer b.Close()
			start := time.Now()
			if tc.rowsPer == 1 {
				submitN(t, b, tc.submits)
			} else {
				rows := linalg.NewMatrix(tc.rowsPer, 2)
				out := make([]float64, tc.rowsPer)
				if _, err := b.Submit(context.Background(), rows, out); err != nil {
					t.Fatal(err)
				}
			}
			if elapsed := time.Since(start); elapsed > tc.maxElapsed {
				t.Errorf("submissions took %v, want < %v", elapsed, tc.maxElapsed)
			}
			batches, rows := f.snapshot()
			if want := tc.submits * tc.rowsPer; rows != want {
				t.Errorf("scored %d rows, want %d", rows, want)
			}
			tc.checkBatch(t, batches)
		})
	}
}

// TestBatcherRejectsCancelledWhileQueued pins the 503 path: a request whose
// context is cancelled while it waits behind a slow flush is rejected with
// the context error and never reaches the scorer.
func TestBatcherRejectsCancelledWhileQueued(t *testing.T) {
	f := &fakeScorer{delay: 100 * time.Millisecond}
	b := NewBatcher(f, BatcherConfig{MaxBatch: 1, MaxWait: 0, Workers: 1})
	defer b.Close()

	// Occupy the single worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]float64, 1)
		if _, err := b.Submit(context.Background(), oneRow(1), out); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the blocker reach the scorer

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := make([]float64, 1)
	if _, err := b.Submit(ctx, oneRow(2), out); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled submit returned %v, want context.Canceled", err)
	}
	wg.Wait()
	b.Close()
	if _, rows := f.snapshot(); rows != 1 {
		t.Errorf("scorer saw %d rows, want only the blocker's 1", rows)
	}
}

// TestBatcherQueueFull pins the bounded-queue contract: with the worker busy
// and the queue at capacity, the next submission fails fast with
// ErrQueueFull instead of blocking.
func TestBatcherQueueFull(t *testing.T) {
	// started holds one signal per flush: the two setup requests.
	f := &fakeScorer{started: make(chan struct{}, 2), release: make(chan struct{})}
	b := NewBatcher(f, BatcherConfig{MaxBatch: 1, MaxWait: 0, Workers: 1, QueueDepth: 1})
	defer b.Close()
	release := sync.OnceFunc(func() { close(f.release) })
	defer release() // runs before Close, so a failed test never strands the worker

	errs := make(chan error, 2)
	submit := func(v float64) {
		out := make([]float64, 1)
		_, err := b.Submit(context.Background(), oneRow(v), out)
		errs <- err
	}
	go submit(1)
	select { // the worker now holds request 1 and the queue is empty
	case <-f.started:
	case err := <-errs:
		t.Fatalf("first setup submit returned %v before reaching the scorer", err)
	}
	go submit(2)
	for deadline := time.Now().Add(10 * time.Second); b.Depth() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second setup request never reached the queue")
		}
	}
	out := make([]float64, 1)
	if _, err := b.Submit(context.Background(), oneRow(3), out); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit to full queue returned %v, want ErrQueueFull", err)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("setup submit: %v", err)
		}
	}
}

// TestBatcherCloseDrains pins graceful shutdown: requests accepted before
// Close are scored, submissions after Close fail with ErrClosed, and Close
// is idempotent.
func TestBatcherCloseDrains(t *testing.T) {
	f := &fakeScorer{delay: 10 * time.Millisecond}
	b := NewBatcher(f, BatcherConfig{MaxBatch: 4, MaxWait: time.Millisecond, Workers: 2, QueueDepth: 64})

	const n = 16
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := make([]float64, 1)
			_, err := b.Submit(context.Background(), oneRow(float64(i)), out)
			switch {
			case err == nil:
				accepted.Add(1)
				if out[0] != float64(i) {
					t.Errorf("request %d scored %v", i, out[0])
				}
			case errors.Is(err, ErrClosed):
				// Raced with Close before enqueue: legitimately rejected.
			default:
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	b.Close()
	b.Close() // idempotent
	wg.Wait()

	_, rows := f.snapshot()
	if int64(rows) != accepted.Load() {
		t.Errorf("scored %d rows but %d submissions were accepted", rows, accepted.Load())
	}
	out := make([]float64, 1)
	if _, err := b.Submit(context.Background(), oneRow(1), out); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close returned %v, want ErrClosed", err)
	}
}

// TestBatcherSteadyStateZeroAllocs guards the pooled enqueue/dequeue round
// trip: after warm-up, a Submit through flush and response must not allocate.
func TestBatcherSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	// Preallocate the recording slice so the fake's own bookkeeping never
	// shows up in the allocation count.
	f := &fakeScorer{batches: make([]int, 0, 1<<14)}
	b := NewBatcher(f, BatcherConfig{MaxBatch: 8, MaxWait: 0, Workers: 1})
	defer b.Close()

	rows := oneRow(3)
	out := make([]float64, 1)
	ctx := context.Background()
	for i := 0; i < 100; i++ { // warm the pools
		if _, err := b.Submit(ctx, rows, out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.Submit(ctx, rows, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Submit allocates %.1f per request, want 0", allocs)
	}
}

// TestBatcherMetricsCountRowsBeforeReply: a flush's rows are counted before
// its requests are signalled, so right after each Submit returns, rowsScored
// already includes that request's row. Thousands of sequential submits give
// a reply-before-count ordering many chances to show.
func TestBatcherMetricsCountRowsBeforeReply(t *testing.T) {
	mm := &ModelMetrics{model: "m"}
	b := NewBatcher(&fakeScorer{}, BatcherConfig{MaxBatch: 1, MaxWait: 0, Workers: 2, Metrics: mm})
	defer b.Close()
	rows := oneRow(1)
	out := make([]float64, 1)
	ctx := context.Background()
	for i := 1; i <= 20000; i++ {
		if _, err := b.Submit(ctx, rows, out); err != nil {
			t.Fatal(err)
		}
		if got := mm.rowsScored.Load(); got != int64(i) {
			t.Fatalf("after reply %d: rowsScored = %d, want %d", i, got, i)
		}
	}
}
