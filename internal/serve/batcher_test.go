package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// submitAsync submits a one-row request whose score is v and reports on
// the returned channel the submit's error, or a wrong score.
func submitAsync(b *Batcher, v float64) <-chan error {
	errc := make(chan error, 1)
	go func() {
		out := make([]float64, 1)
		_, err := b.Submit(context.Background(), oneRow(v), out)
		if err == nil && out[0] != v {
			err = fmt.Errorf("submit %v scored %v", v, out[0])
		}
		errc <- err
	}()
	return errc
}

// holdFirstFlush submits one request and waits until the single worker is
// scoring it inside f, whose release channel then holds the flush until the
// test sends or closes. It returns the held submit's outcome channel.
func holdFirstFlush(t *testing.T, b *Batcher, f *fakeScorer) <-chan error {
	t.Helper()
	errc := submitAsync(b, -1)
	select {
	case <-f.started:
	case err := <-errc:
		t.Fatalf("held submit returned %v before reaching the scorer", err)
	}
	return errc
}

// awaitDepth polls until n requests are queued.
func awaitDepth(t *testing.T, b *Batcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); b.Depth() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", b.Depth(), n)
		}
	}
}

// flushWant is one expected flush: its row count and reason.
type flushWant struct{ rows, reason int }

// TestBatcherFlushBehavior is the table-driven flush contract. In the held
// cases the single worker's first flush is held while one-row requests
// queue behind it, so the batch boundaries after the release are
// deterministic: the worker takes everything already queued, up to MaxBatch
// rows, and flushes without waiting for more. The other cases submit
// concurrently: a batch never passes MaxBatch by more than one request, and
// an oversized request flushes whole.
func TestBatcherFlushBehavior(t *testing.T) {
	cases := []struct {
		name string
		cfg  BatcherConfig
		// held, when > 0, queues that many one-row requests behind a held
		// flush; want lists the flushes that follow the held one.
		held int
		want []flushWant
		// Otherwise submits concurrent requests of rowsPer rows each.
		submits    int
		rowsPer    int
		checkBatch func(t *testing.T, batches []int)
	}{
		{
			name: "queued requests drain into one flush",
			cfg:  BatcherConfig{MaxBatch: 1000, Workers: 1},
			held: 5,
			want: []flushWant{{5, flushEmpty}},
		},
		{
			name: "drain splits at max-batch",
			cfg:  BatcherConfig{MaxBatch: 4, Workers: 1},
			held: 10,
			want: []flushWant{{4, flushFull}, {4, flushFull}, {2, flushEmpty}},
		},
		{
			name:    "max-size flushes early",
			cfg:     BatcherConfig{MaxBatch: 4, Workers: 1},
			submits: 8,
			rowsPer: 1,
			checkBatch: func(t *testing.T, batches []int) {
				for _, n := range batches {
					if n > 4+1 {
						t.Errorf("batch of %d rows exceeds MaxBatch", n)
					}
				}
			},
		},
		{
			name:    "oversized request flushes whole",
			cfg:     BatcherConfig{MaxBatch: 2, Workers: 1},
			submits: 1,
			rowsPer: 7,
			checkBatch: func(t *testing.T, batches []int) {
				if len(batches) != 1 || batches[0] != 7 {
					t.Errorf("batches = %v, want one batch of 7", batches)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.held > 0 {
				runHeld(t, tc.cfg, tc.held, tc.want)
				return
			}
			f := &fakeScorer{}
			b := NewBatcher(f, tc.cfg)
			defer b.Close()
			if tc.rowsPer == 1 {
				submitN(t, b, tc.submits)
			} else {
				rows := linalg.NewMatrix(tc.rowsPer, 2)
				out := make([]float64, tc.rowsPer)
				if _, err := b.Submit(context.Background(), rows, out); err != nil {
					t.Fatal(err)
				}
			}
			batches, rows := f.snapshot()
			if want := tc.submits * tc.rowsPer; rows != want {
				t.Errorf("scored %d rows, want %d", rows, want)
			}
			tc.checkBatch(t, batches)
		})
	}
}

// runHeld queues n one-row requests behind a held flush, then releases one
// flush at a time and checks each flush's rows and reason. The single
// worker records a flush's reason before it starts the next flush, so the
// reason counters read at each flush start cover every earlier flush.
func runHeld(t *testing.T, cfg BatcherConfig, n int, want []flushWant) {
	t.Helper()
	// started has room for a signal from every possible flush, so a flush
	// beyond want never blocks.
	f := &fakeScorer{started: make(chan struct{}, n+1), release: make(chan struct{})}
	mm := &ModelMetrics{model: "m"}
	cfg.Metrics = mm
	b := NewBatcher(f, cfg)
	defer b.Close()
	release := sync.OnceFunc(func() { close(f.release) })
	defer release() // runs before Close, so a failed test never strands the worker

	held := holdFirstFlush(t, b, f)
	queued := []<-chan error{held}
	for i := 0; i < n; i++ {
		queued = append(queued, submitAsync(b, float64(i)))
	}
	awaitDepth(t, b, n)

	reasons := func() (r [numFlushReasons]int64) {
		for i := range r {
			r[i] = mm.flushes[i].Load()
		}
		return r
	}
	f.release <- struct{}{} // the held flush
	var snaps [][numFlushReasons]int64
	for range want {
		select {
		case <-f.started:
		case <-time.After(10 * time.Second):
			batches, _ := f.snapshot()
			t.Fatalf("only %d flushes after the held one, want %d (batches %v)",
				len(snaps), len(want), batches)
		}
		snaps = append(snaps, reasons())
		f.release <- struct{}{}
	}
	release() // any flush beyond want passes straight through
	for _, c := range queued {
		if err := <-c; err != nil {
			t.Error(err)
		}
	}
	snaps = append(snaps, reasons())

	batches, _ := f.snapshot()
	wantBatches := []int{1}
	for _, w := range want {
		wantBatches = append(wantBatches, w.rows)
	}
	if !slices.Equal(batches, wantBatches) {
		t.Fatalf("flushed batches of %v rows, want %v", batches, wantBatches)
	}
	for i, w := range want {
		for r := range snaps[i] {
			wantN := int64(0)
			if r == w.reason {
				wantN = 1
			}
			if got := snaps[i+1][r] - snaps[i][r]; got != wantN {
				t.Errorf("flush %d (%d rows): reason %s counted %d times, want %d",
					i+1, w.rows, flushReasonNames[r], got, wantN)
			}
		}
	}
}

// TestBatcherRejectsCancelledWhileQueued pins the 503 path: a request whose
// context is cancelled while it waits behind a slow flush is rejected with
// the context error and never reaches the scorer.
func TestBatcherRejectsCancelledWhileQueued(t *testing.T) {
	f := &fakeScorer{delay: 100 * time.Millisecond}
	b := NewBatcher(f, BatcherConfig{MaxBatch: 1, Workers: 1})
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
	b := NewBatcher(f, BatcherConfig{MaxBatch: 1, Workers: 1, QueueDepth: 1})
	defer b.Close()
	release := sync.OnceFunc(func() { close(f.release) })
	defer release() // runs before Close, so a failed test never strands the worker

	held := holdFirstFlush(t, b, f) // the worker holds request 1; the queue is empty
	queued := submitAsync(b, 2)
	awaitDepth(t, b, 1)
	out := make([]float64, 1)
	if _, err := b.Submit(context.Background(), oneRow(3), out); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit to full queue returned %v, want ErrQueueFull", err)
	}
	release()
	for _, c := range []<-chan error{held, queued} {
		if err := <-c; err != nil {
			t.Errorf("setup submit: %v", err)
		}
	}
}

// TestBatcherCloseDrains pins graceful shutdown: requests accepted before
// Close are scored, submissions after Close fail with ErrClosed, and Close
// is idempotent.
func TestBatcherCloseDrains(t *testing.T) {
	f := &fakeScorer{delay: 10 * time.Millisecond}
	b := NewBatcher(f, BatcherConfig{MaxBatch: 4, Workers: 2, QueueDepth: 64})

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
// trip: after warm-up, a Submit through flush and response must not
// allocate, with or without metrics (and so the queue-wait stamp) attached.
func TestBatcherSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, mm := range []*ModelMetrics{nil, {model: "m"}} {
		// Preallocate the recording slice so the fake's own bookkeeping
		// never shows up in the allocation count.
		f := &fakeScorer{batches: make([]int, 0, 1<<14)}
		b := NewBatcher(f, BatcherConfig{MaxBatch: 8, Workers: 1, Metrics: mm})
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
			t.Errorf("steady-state Submit (metrics attached: %v) allocates %.1f per request, want 0",
				mm != nil, allocs)
		}
	}
}

// TestBatcherRecordsQueueWait: a request queued behind a flush held for
// 20 ms records a queue wait of at least 20 ms, measured from its enqueue
// to the start of its own flush.
func TestBatcherRecordsQueueWait(t *testing.T) {
	const hold = 20 * time.Millisecond
	f := &fakeScorer{started: make(chan struct{}, 1), release: make(chan struct{})}
	mm := &ModelMetrics{model: "m"}
	b := NewBatcher(f, BatcherConfig{Workers: 1, Metrics: mm})
	defer b.Close()
	release := sync.OnceFunc(func() { close(f.release) })
	defer release()

	held := holdFirstFlush(t, b, f)
	queued := submitAsync(b, 1)
	awaitDepth(t, b, 1)
	time.Sleep(hold)
	release()
	for _, c := range []<-chan error{held, queued} {
		if err := <-c; err != nil {
			t.Fatal(err)
		}
	}
	if n := mm.queueWait.Count(); n != 2 {
		t.Fatalf("queue wait recorded for %d requests, want 2", n)
	}
	// The held request found an idle worker and waited next to nothing, so
	// the sum is, to within that, the queued request's wait.
	for _, s := range mm.queueWait.Samples(1e9) {
		if s.Suffix == "_sum" && s.Value < hold.Seconds() {
			t.Errorf("queue wait sum %.4fs, want >= %.4fs", s.Value, hold.Seconds())
		}
	}
}

// TestBatcherMetricsCountRowsBeforeReply: a flush's rows are counted before
// its requests are signalled, so right after each Submit returns, rowsScored
// already includes that request's row. Thousands of sequential submits give
// a reply-before-count ordering many chances to show.
func TestBatcherMetricsCountRowsBeforeReply(t *testing.T) {
	mm := &ModelMetrics{model: "m"}
	b := NewBatcher(&fakeScorer{}, BatcherConfig{MaxBatch: 1, Workers: 2, Metrics: mm})
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
