package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"frac/internal/core"
	"frac/internal/drift"
	"frac/internal/linalg"
	"frac/internal/parallel"
)

// The micro-batching queue: concurrent score requests coalesce into batches
// that feed the zero-alloc batch scoring path. Batching amortizes the
// per-flush costs (runtime pin, per-term batch prediction setup) across
// every row in the batch without perturbing scores — per-row predictions
// are independent of the other rows, so any partitioning of rows into
// batches is bit-identical (the parity test pins this end to end).
//
// A request enters the queue whole (all its rows stay together) and the
// flushing worker coalesces queued requests until the batch reaches
// MaxBatch rows or the oldest request has waited MaxWait. Flushes score
// against exactly one runtime, so hot reloads can never produce a torn
// batch. Steady state the enqueue → flush → respond round trip performs
// zero allocations: requests, batch matrices, and totals are pooled.

// Batcher errors. The HTTP layer maps all of them to 503 (the request was
// never scored and the client may retry).
var (
	// ErrClosed rejects submissions after Close (daemon shutting down).
	ErrClosed = errors.New("serve: batcher closed")
	// ErrQueueFull rejects submissions when the pending queue is at
	// capacity — bounded queueing keeps tail latency bounded under
	// overload instead of letting requests pile up.
	ErrQueueFull = errors.New("serve: queue full")
)

// Flush reasons, recorded per flush when metrics are attached.
const (
	flushFull  = iota // batch reached MaxBatch rows
	flushTimer        // MaxWait elapsed with a partial batch
	flushEager        // MaxWait is zero: every request flushes alone
	flushDrain        // queue closed during collection (shutdown drain)
	numFlushReasons
)

var flushReasonNames = [numFlushReasons]string{"full", "timer", "eager", "drain"}

// BatcherConfig parameterizes the queue.
type BatcherConfig struct {
	// MaxBatch is the row count at which a batch flushes immediately.
	// <= 0 selects 64. A single request larger than MaxBatch still flushes
	// whole (requests are never split), so a batch can exceed MaxBatch by
	// at most one request's rows.
	MaxBatch int
	// MaxWait bounds how long the oldest queued request waits for the
	// batch to fill; 0 disables coalescing (every request flushes alone).
	MaxWait time.Duration
	// Workers is the number of concurrent flushing workers, each with its
	// own scoring scratch. <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds pending requests; submissions beyond it fail fast
	// with ErrQueueFull. <= 0 selects 1024.
	QueueDepth int
	// Metrics, when non-nil, receives batch-occupancy and flush
	// accounting for this batcher's model.
	Metrics *ModelMetrics
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// Scorer scores one coalesced batch. Implementations pin whatever state the
// whole batch must share (the Handle pins its current runtime) and report
// it, so every response can be stamped with the exact model that scored it.
// col is the worker's drift collector; implementations without drift
// monitoring ignore it (it may be nil). ew and k carry the batch's
// attribution capture (nil / 0 when no request in the batch asked for an
// explanation); capture must never change the scores.
type Scorer interface {
	ScoreBatch(rows *linalg.Matrix, out []float64, ws *core.ScoreWorkspace, col *drift.Collector, ew *core.ExplainWorkspace, k int) (*Runtime, error)
}

// request is one queued submission. Requests are pooled; the done channel
// (capacity 1) is created once per instance and reused. A request abandoned
// by a cancelled Submit is never returned to the pool, so a late worker
// signal can never leak into a reused instance.
type request struct {
	ctx     context.Context
	rows    *linalg.Matrix // caller-owned; read until done is signalled
	out     []float64      // caller-owned; scores land here before done
	explain int            // requested attribution depth; 0 = plain scoring
	// attr is the caller-owned per-row attribution destination (len ==
	// rows.Rows when explain > 0): the flushing worker appends each row's
	// top-explain attributions into attr[i] before signalling done.
	attr [][]core.Attribution
	rt   *Runtime // runtime that scored the batch (nil on error)
	err  error
	done chan struct{}
}

// Batcher is the coalescing queue in front of one model handle.
type Batcher struct {
	cfg    BatcherConfig
	scorer Scorer
	reqs   chan *request

	reqPool sync.Pool

	mu     sync.RWMutex // serializes Close against in-flight enqueues
	closed bool
	wg     sync.WaitGroup
}

// NewBatcher starts cfg.Workers flushing workers over the scorer.
func NewBatcher(scorer Scorer, cfg BatcherConfig) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		cfg:    cfg,
		scorer: scorer,
		reqs:   make(chan *request, cfg.QueueDepth),
		reqPool: sync.Pool{New: func() any {
			return &request{done: make(chan struct{}, 1)}
		}},
	}
	b.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go b.worker(i)
	}
	return b
}

// Depth reports the number of queued (not yet collected) requests.
func (b *Batcher) Depth() int { return len(b.reqs) }

// Submit enqueues rows for scoring and blocks until the batch containing
// them is scored (scores written into out, which must have rows.Rows slots),
// the context is cancelled, or the batcher rejects the request. On success
// it returns the runtime that scored the batch. Steady state a Submit
// performs zero allocations.
func (b *Batcher) Submit(ctx context.Context, rows *linalg.Matrix, out []float64) (*Runtime, error) {
	return b.SubmitExplained(ctx, rows, out, nil, 0)
}

// SubmitExplained is Submit with per-row attribution capture: when k > 0,
// attr must have one (possibly nil) slot per row, and the flushing worker
// fills attr[i] with row i's top-k attributions (fewer when the model has
// fewer distinct features) before the call returns. Like out, attr is
// caller-owned but written by the worker — a caller whose context was
// cancelled must abandon it. k <= 0 is exactly Submit, including its
// zero-allocation steady state.
func (b *Batcher) SubmitExplained(ctx context.Context, rows *linalg.Matrix, out []float64, attr [][]core.Attribution, k int) (*Runtime, error) {
	if rows.Rows == 0 || rows.Rows != len(out) {
		return nil, errors.New("serve: submit needs rows and exactly one output slot per row")
	}
	if k > 0 && len(attr) != rows.Rows {
		return nil, errors.New("serve: explained submit needs one attribution slot per row")
	}
	if k <= 0 {
		k, attr = 0, nil
	}
	req := b.reqPool.Get().(*request)
	req.ctx, req.rows, req.out, req.rt, req.err = ctx, rows, out, nil, nil
	req.explain, req.attr = k, attr

	// The enqueue is non-blocking and happens under the read lock, so Close
	// (which closes the channel under the write lock) can never race a send.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		b.put(req)
		return nil, ErrClosed
	}
	select {
	case b.reqs <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.put(req)
		return nil, ErrQueueFull
	}
	b.cfg.Metrics.observeQueueDepth(len(b.reqs))

	select {
	case <-req.done:
		rt, err := req.rt, req.err
		b.put(req)
		return rt, err
	case <-ctx.Done():
		// The worker may still be scoring this request; it owns the
		// instance now, so it must not be pooled. The worker's done signal
		// lands in the buffered channel and is collected with the instance.
		return nil, ctx.Err()
	}
}

func (b *Batcher) put(req *request) {
	req.ctx, req.rows, req.out, req.rt, req.err = nil, nil, nil, nil, nil
	req.explain, req.attr = 0, nil
	b.reqPool.Put(req)
}

// Close stops intake and waits for the workers to drain every queued
// request: submissions already accepted are scored (graceful drain), later
// ones fail with ErrClosed. Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	close(b.reqs)
	b.mu.Unlock()
	b.wg.Wait()
}

// workerState is the per-worker flush scratch, reused across every batch the
// worker handles.
type workerState struct {
	ws      *core.ScoreWorkspace
	col     *drift.Collector
	ew      *core.ExplainWorkspace // lazily created on the first explained flush
	pending []*request
	batch   *linalg.Matrix
	totals  []float64
}

func (b *Batcher) worker(index int) {
	defer b.wg.Done()
	// The worker goroutine lives until Close; tag it once so CPU profiles
	// attribute flush time to the serve phase per worker.
	parallel.LabelWorker(context.Background(), "serve_flush", index)
	w := &workerState{ws: core.NewScoreWorkspace(), col: drift.NewCollector()}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for first := range b.reqs {
		w.pending = append(w.pending[:0], first)
		rows := first.rows.Rows
		reason := flushFull
		switch {
		case rows >= b.cfg.MaxBatch:
			// Flush immediately; oversized requests go out whole.
		case b.cfg.MaxWait <= 0:
			reason = flushEager
		default:
			timer.Reset(b.cfg.MaxWait)
			fired := false
		collect:
			for rows < b.cfg.MaxBatch {
				select {
				case r, ok := <-b.reqs:
					if !ok {
						reason = flushDrain
						break collect
					}
					w.pending = append(w.pending, r)
					rows += r.rows.Rows
				case <-timer.C:
					fired = true
					reason = flushTimer
					break collect
				}
			}
			if !fired && !timer.Stop() {
				<-timer.C
			}
		}
		b.flush(w, reason)
	}
}

// flush scores one coalesced batch and responds to every request in it.
func (b *Batcher) flush(w *workerState, reason int) {
	// Requests whose context expired while queued are rejected without
	// scoring; their Submit already returned, but the contract (set
	// outcome, then signal) is kept uniform.
	live := 0
	for _, req := range w.pending {
		if err := req.ctx.Err(); err != nil {
			req.err = err
			req.done <- struct{}{}
			continue
		}
		w.pending[live] = req
		live++
	}
	w.pending = w.pending[:live]
	if live == 0 {
		return
	}

	// A coalesced batch is captured once at the deepest depth any of its
	// requests asked for; each request then takes the prefix of its rows'
	// sorted attribution windows (the top-k of a deeper capture IS the
	// shallower capture). Plain batches pass ew nil, keeping the explain-off
	// flush allocation-free.
	maxK := 0
	for _, req := range w.pending {
		if req.explain > maxK {
			maxK = req.explain
		}
	}
	ew := w.ew
	if maxK > 0 && ew == nil {
		w.ew = core.NewExplainWorkspace()
		ew = w.ew
	}
	if maxK == 0 {
		ew = nil
	}

	var rt *Runtime
	var err error
	if live == 1 {
		// Single-request batch: score the caller's matrix in place.
		req := w.pending[0]
		rt, err = b.scorer.ScoreBatch(req.rows, req.out, w.ws, w.col, ew, maxK)
		if err == nil && req.explain > 0 {
			copyAttributions(req, ew, 0)
		}
		b.finish(w.pending, rt, err, reason, req.rows.Rows)
		return
	}

	// Coalesced batch: gather rows into the worker's batch matrix. A hot
	// reload between two requests' validations can leave mixed widths in
	// one batch; minority widths are failed individually rather than
	// poisoning the whole flush.
	cols := w.pending[0].rows.Cols
	n := 0
	for _, req := range w.pending {
		if req.rows.Cols == cols {
			n += req.rows.Rows
		}
	}
	w.batch = linalg.Resize(w.batch, n, cols)
	if cap(w.totals) < n {
		w.totals = make([]float64, n)
	}
	totals := w.totals[:n]
	off := 0
	same := w.pending[:0]
	for _, req := range w.pending {
		if req.rows.Cols != cols {
			req.err = errors.New("serve: model schema changed while queued")
			req.done <- struct{}{}
			continue
		}
		copy(w.batch.Data[off*cols:(off+req.rows.Rows)*cols], req.rows.Data)
		off += req.rows.Rows
		same = append(same, req)
	}
	w.pending = same
	rt, err = b.scorer.ScoreBatch(w.batch, totals, w.ws, w.col, ew, maxK)
	if err == nil {
		off = 0
		for _, req := range w.pending {
			copy(req.out, totals[off:off+req.rows.Rows])
			if req.explain > 0 {
				copyAttributions(req, ew, off)
			}
			off += req.rows.Rows
		}
	}
	b.finish(w.pending, rt, err, reason, n)
}

// copyAttributions fills one request's attribution slots from the worker's
// capture of the whole batch, starting at the request's row offset. The
// request may have asked for a shallower depth than the batch was captured
// at; its rows take the prefix of each sorted window.
func copyAttributions(req *request, ew *core.ExplainWorkspace, off int) {
	k := req.explain
	if d := ew.Depth(); d < k {
		k = d
	}
	for i := range req.attr {
		req.attr[i] = append(req.attr[i][:0], ew.Attributions(off + i)[:k]...)
	}
}

// finish records the flush metrics, then stamps the outcome on every
// request and signals them. Recording first means a client that has its
// reply also finds its rows counted by the next scrape.
func (b *Batcher) finish(reqs []*request, rt *Runtime, err error, reason, rows int) {
	b.cfg.Metrics.observeFlush(reason, rows, len(reqs), err == nil)
	for _, req := range reqs {
		req.rt, req.err = rt, err
		req.done <- struct{}{}
	}
}
