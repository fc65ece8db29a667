package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"frac"
	"frac/internal/core"
	"frac/internal/drift"
	"frac/internal/linalg"
	"frac/internal/obs"
	"frac/internal/serve"
)

// traceHeader carries a request's trace id from the generator to the
// server wrapper.
const traceHeader = "X-Perfbench-Trace"

// tracedHandler wraps Server.ServeHTTP in a serve.http span while on.
type tracedHandler struct {
	next  http.Handler
	spans *spanStore
	on    atomic.Bool

	mu     sync.Mutex
	server map[string]time.Duration // trace id -> server time
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	if id := r.Header.Get(traceHeader); id != "" {
		h.spans.addUnder(id, "serve.http", "loadgen.request", start, end)
		h.mu.Lock()
		h.server[id] = end.Sub(start)
		h.mu.Unlock()
	}
}

// flushTiming is one Handle.ScoreBatch call made by the batcher.
type flushTiming struct{ start, end time.Time }

// timingScorer is a serve.Scorer around Handle.ScoreBatch that records every
// flush.
type timingScorer struct {
	h       *serve.Handle
	spans   *spanStore
	mu      sync.Mutex
	flushes []flushTiming
}

func (t *timingScorer) ScoreBatch(rows *linalg.Matrix, out []float64, ws *core.ScoreWorkspace, col *drift.Collector, ew *core.ExplainWorkspace, k int) (*serve.Runtime, error) {
	start := time.Now()
	rt, err := t.h.ScoreBatch(rows, out, ws, col, ew, k)
	end := time.Now()
	t.spans.add("flush", "serve.flush", 0, start, end)
	t.mu.Lock()
	t.flushes = append(t.flushes, flushTiming{start, end})
	t.mu.Unlock()
	return rt, err
}

// queueWaits matches each submit to the flush that scored it — the latest
// flush that started after the submit and ended before it returned — and
// returns the submit time minus that flush, in ms.
func queueWaits(submits []flushTiming, flushes []flushTiming) []float64 {
	sort.Slice(flushes, func(a, b int) bool { return flushes[a].end.Before(flushes[b].end) })
	var out []float64
	for _, s := range submits {
		i := sort.Search(len(flushes), func(j int) bool { return flushes[j].end.After(s.end) })
		for j := i - 1; j >= 0; j-- {
			if !flushes[j].start.Before(s.start) {
				f := flushes[j]
				out = append(out, float64(s.end.Sub(s.start)-f.end.Sub(f.start))/1e6)
				break
			}
			if flushes[j].end.Before(s.start) {
				break
			}
		}
	}
	return out
}

// fracserveDefaults is the in-process configuration fracserve runs with
// when only -addr and -model are given.
func fracserveDefaults(m *serve.Metrics) serve.ServerConfig {
	return serve.ServerConfig{
		Metrics: m,
		Batcher: serve.BatcherConfig{MaxBatch: 64, MaxWait: 2 * time.Millisecond, QueueDepth: 1024},
		Drift:   serve.DriftConfig{Window: 512},
	}
}

// runServeTraced is the traced serve workload. It runs the serve layer in
// process with fracserve's defaults (serve.NewHandle, serve.NewServer) and
// measures each layer from the outside.
func (b *bench) runServeTraced() error {
	var parses []float64
	var sm servedModel
	for i := 0; i < setupRepeats; i++ {
		var parse time.Duration
		var err error
		trace := fmt.Sprintf("setup-%d", i)
		if i < setupRepeats-1 {
			_, parse, err = b.makePool(trace, 0)
		} else {
			sm, parse, err = b.trainServed(trace, 0)
		}
		if err != nil {
			return err
		}
		parses = append(parses, parse.Seconds())
	}
	b.set("dataset.parse_s", "s", median(parses))
	model, err := loadArtifact(sm.path)
	if err != nil {
		return err
	}
	rp, err := b.buildReplay(sm, model)
	if err != nil {
		return err
	}
	if err := b.measureLoad(sm.path); err != nil {
		return err
	}

	h, err := serve.NewHandle("m", sm.path)
	if err != nil {
		return err
	}
	metrics := &serve.Metrics{}
	srv, err := serve.NewServer([]*serve.Handle{h}, fracserveDefaults(metrics))
	if err != nil {
		return err
	}
	defer srv.Close()
	th := &tracedHandler{next: srv, spans: b.spans, server: map[string]time.Duration{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: th}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	addr := ln.Addr().String()
	if err := firstResponse(addr, rp); err != nil {
		return err
	}

	sec := b.seconds.Seconds()
	var late []float64
	var transport, server []float64
	phase := func(name string, rate float64, d time.Duration, traced bool) ([]sample, error) {
		th.on.Store(traced)
		var hook func(r *http.Request, i int)
		if traced {
			hook = func(r *http.Request, i int) { r.Header.Set(traceHeader, name+"-"+strconv.Itoa(i)) }
		}
		samples, err := b.loadPhase(name, rate, d, rp, httpSender(addr, b.spec.Connections, rp, hook), &late)
		if err != nil || !traced {
			return samples, err
		}
		for i := range samples {
			s := &samples[i]
			if s.err != nil {
				continue
			}
			id := name + "-" + strconv.Itoa(i)
			root := b.spans.add(id, "loadgen.request", 0, s.due, s.done)
			b.spans.add(id, "loadgen.queue", root, s.due, s.sent)
			th.mu.Lock()
			st, ok := th.server[id]
			th.mu.Unlock()
			if ok {
				server = append(server, float64(st)/1e6)
				transport = append(transport, float64(s.done.Sub(s.sent)-st)/1e6)
			}
		}
		return samples, nil
	}

	// Untraced and traced passes at the low rate give the tracing overhead.
	if _, err := phase("warmup", b.spec.LowRPS, seconds(max(warmupShare*sec, 0.5)), false); err != nil {
		return err
	}
	plainLow, err := phase("plain-low", b.spec.LowRPS, seconds(0.15*sec), false)
	if err != nil {
		return err
	}
	tracedLow, err := phase("low", b.spec.LowRPS, seconds(0.15*sec), true)
	if err != nil {
		return err
	}
	high, err := phase("high", b.spec.HighRPS, seconds(0.15*sec), true)
	if err != nil {
		return err
	}
	b.checkHealth(addr)
	plainLat, err := summarize(latencies(plainLow))
	if err != nil {
		return err
	}
	tracedLat, err := summarize(latencies(tracedLow))
	if err != nil {
		return err
	}
	highLat, err := summarize(latencies(high))
	if err != nil {
		return err
	}
	fmt.Printf("# untraced low: %s\n# traced low:   %s\n# traced high:  %s\n", plainLat, tracedLat, highLat)
	b.set("trace.overhead_frac", "ratio", tracedLat.p50/plainLat.p50-1)
	b.set("serve.http_ms.mean", "ms", mean(server))
	b.set("serve.transport_ms.mean", "ms", mean(transport))
	lateSum, err := summarize(late)
	if err != nil {
		return err
	}
	b.set("loadgen.late_ms.p99", "ms", lateSum.tail)
	b.setFamilies(metrics.Families())
	if mon := h.Monitor(); mon != nil {
		b.set("drift.windows", "count", float64(mon.Snapshot().Windows))
	}

	if err := b.measureBatcher(h, rp, seconds(0.15*sec)); err != nil {
		return err
	}
	if err := b.measureCodec(rp, high); err != nil {
		return err
	}
	b.measureScoring(h, rp, seconds(0.1*sec))
	b.setKernelMetrics(len(h.Runtime().Schema()) - 1)
	return nil
}

// measureLoad times serve.LoadRuntime on the artifact and records its
// sizes.
func (b *bench) measureLoad(path string) error {
	var loads []float64
	var rt *serve.Runtime
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if rt, err = serve.LoadRuntime(path); err != nil {
			return err
		}
		loads = append(loads, time.Since(start).Seconds())
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	b.set("core.model_load_s", "s", median(loads))
	b.set("core.model_file_mb", "MB", float64(fi.Size())/(1<<20))
	b.set("core.model_mb", "MB", float64(rt.Bytes())/(1<<20))
	return nil
}

// measureBatcher drives a batcher with fracserve's defaults around a timing
// Scorer, open-loop at the high rate, with in-process submits: queue wait is
// each Submit's time minus the flush that scored it.
func (b *bench) measureBatcher(h *serve.Handle, rp *replay, d time.Duration) error {
	ts := &timingScorer{h: h, spans: b.spans}
	bt := serve.NewBatcher(ts, fracserveDefaults(nil).Batcher)
	defer bt.Close()
	conns := b.spec.Connections
	submits := make([]flushTiming, 0, 1024)
	var mu sync.Mutex
	outs := make([][]float64, conns)
	attrs := make([][][]core.Attribution, conns)
	send := func(conn, i int) (int, []byte, error) {
		_, rows, explained := rp.body(i)
		m := rp.rows[i%len(rp.rows)]
		if len(outs[conn]) < rows {
			outs[conn] = make([]float64, rows)
			attrs[conn] = make([][]core.Attribution, rows)
		}
		out := outs[conn][:rows]
		start := time.Now()
		var err error
		if explained {
			_, err = bt.SubmitExplained(context.Background(), m, out, attrs[conn][:rows], rp.k)
		} else {
			_, err = bt.Submit(context.Background(), m, out)
		}
		end := time.Now()
		if err != nil {
			return 0, nil, err
		}
		mu.Lock()
		submits = append(submits, flushTiming{start, end})
		mu.Unlock()
		b.spans.add("submit-"+strconv.Itoa(i), "serve.submit", 0, start, end)
		for r, v := range out {
			if math.Float64bits(v) != math.Float64bits(rp.expected[i%len(rp.expected)][r]) {
				return 0, nil, fmt.Errorf("row %d scored %v, artifact gives %v", r, v, rp.expected[i%len(rp.expected)][r])
			}
		}
		return http.StatusOK, nil, nil
	}
	sched := poissonSchedule(frac.NewRNG(b.seed).Stream("arrivals-batcher"), b.spec.HighRPS, d)
	samples, err := openLoop(sched, conns, d, send)
	if err != nil {
		return err
	}
	for i := range samples {
		b.attempt(1)
		if samples[i].err != nil {
			b.miss("batcher submit %d: %v", i, samples[i].err)
		}
	}
	bt.Close()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	waits := queueWaits(submits, ts.flushes)
	w, err := summarize(waits)
	if err != nil {
		return fmt.Errorf("queue wait: %w", err)
	}
	var flushMs []float64
	for _, f := range ts.flushes {
		flushMs = append(flushMs, float64(f.end.Sub(f.start))/1e6)
	}
	fmt.Printf("# batcher at %.0f/s: %d submits, %d flushes, queue wait %s\n",
		b.spec.HighRPS, len(submits), len(ts.flushes), w)
	b.set("serve.queue_wait_ms.p50", "ms", w.p50)
	b.set("serve.queue_wait_ms.p99", "ms", w.tail)
	b.set("serve.flush_ms.p50", "ms", median(flushMs))
	return nil
}

// measureCodec times the JSON codec on the run's bodies: decoding every
// request body into serve.ScoreRequest and encoding every served
// serve.ScoreResponse of the high-rate phase.
func (b *bench) measureCodec(rp *replay, served []sample) error {
	const most = 16 // bodies and responses timed per round
	bodies := rp.plain[:min(most, len(rp.plain))]
	if rp.k > 0 {
		bodies = append(append([][]byte(nil), bodies...), rp.explain[:min(most, len(rp.explain))]...)
	}
	var resps []serve.ScoreResponse
	for i := range served[:min(2*most, len(served))] {
		if served[i].err != nil {
			continue
		}
		var r serve.ScoreResponse
		if err := json.Unmarshal(served[i].body, &r); err != nil {
			return err
		}
		resps = append(resps, r)
	}
	var decode, encode []float64
	for round := 0; round < 5; round++ {
		start := time.Now()
		for _, body := range bodies {
			var req serve.ScoreRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
		}
		decode = append(decode, float64(time.Since(start))/1e3/float64(len(bodies)))
		start = time.Now()
		for i := range resps {
			if _, err := json.Marshal(&resps[i]); err != nil {
				return err
			}
		}
		encode = append(encode, float64(time.Since(start))/1e3/float64(max(len(resps), 1)))
	}
	b.set("serve.decode_us", "us", median(decode))
	b.set("serve.encode_us", "us", median(encode))
	return nil
}

// measureScoring times Handle.ScoreBatch on request-sized replay batches:
// plain (core.score_us_per_row), with the drift monitor against
// Runtime.ScoreInto (drift.us_per_row), and explained at the workload's k
// against plain (explain.us_per_row). Each variant scores each batch in
// turn, so slow and fast moments of the machine fall on every variant
// alike; the variants report their median per-row time over the batches.
// It spends about budget.
func (b *bench) measureScoring(h *serve.Handle, rp *replay, budget time.Duration) {
	ws := core.NewScoreWorkspace()
	ew := core.NewExplainWorkspace()
	col := drift.NewCollector()
	rt := h.Runtime()
	variants := []func(m *linalg.Matrix, out []float64){
		func(m *linalg.Matrix, out []float64) { h.ScoreBatch(m, out, ws, nil, nil, 0) },
		func(m *linalg.Matrix, out []float64) { h.ScoreBatch(m, out, ws, col, nil, 0) },
		func(m *linalg.Matrix, out []float64) { rt.ScoreInto(m, out, ws) },
	}
	if rp.k > 0 {
		variants = append(variants, func(m *linalg.Matrix, out []float64) { h.ScoreBatch(m, out, ws, nil, ew, rp.k) })
	}
	perRow := make([][]float64, len(variants))
	out := make([]float64, rp.rows[0].Rows)
	deadline := time.Now().Add(budget)
	for i := 0; i < 3*len(rp.rows) && (i < 20 || time.Now().Before(deadline)); i++ {
		m := rp.rows[i%len(rp.rows)]
		for v, fn := range variants {
			start := time.Now()
			fn(m, out)
			perRow[v] = append(perRow[v], float64(time.Since(start))/1e3/float64(m.Rows))
		}
	}
	fmt.Printf("# scoring: %d request-sized batches per variant\n", len(perRow[0]))
	b.set("core.score_us_per_row", "us", median(perRow[0]))
	b.set("drift.us_per_row", "us", median(perRow[1])-median(perRow[2]))
	if rp.k > 0 {
		b.set("explain.us_per_row", "us", median(perRow[3])-median(perRow[0]))
	}
}

// setFamilies reads the batcher's frac_serve_* families.
func (b *bench) setFamilies(fams []obs.MetricFamily) {
	sum := func(name, suffix string, label, value string) float64 {
		var v float64
		for _, f := range fams {
			if f.Name != name {
				continue
			}
			for _, s := range f.Samples {
				if s.Suffix != suffix {
					continue
				}
				match := label == ""
				for _, l := range s.Labels {
					if l.Name == label && l.Value == value {
						match = true
					}
				}
				if match {
					v += s.Value
				}
			}
		}
		return v
	}
	ratio := func(a, c float64) float64 {
		if c == 0 {
			return 0
		}
		return a / c
	}
	b.set("serve.batch_rows.mean", "rows", ratio(sum("frac_serve_batch_rows", "_sum", "", ""), sum("frac_serve_batch_rows", "_count", "", "")))
	b.set("serve.batch_requests.mean", "count", ratio(sum("frac_serve_batch_requests", "_sum", "", ""), sum("frac_serve_batch_requests", "_count", "", "")))
	b.set("serve.flush_timer_frac", "ratio", ratio(sum("frac_serve_flushes_total", "", "reason", "timer"), sum("frac_serve_flushes_total", "", "", "")))
	b.set("serve.queue_peak", "count", sum("frac_serve_queue_depth_peak", "", "", ""))
	score := sum("frac_serve_requests_total", "", "endpoint", "score")
	ok := 0.0
	for _, f := range fams {
		if f.Name != "frac_serve_requests_total" {
			continue
		}
		for _, s := range f.Samples {
			if len(s.Labels) == 2 && s.Labels[0].Value == "score" && s.Labels[1].Value == "2xx" {
				ok += s.Value
			}
		}
	}
	b.set("serve.rejected_frac", "ratio", ratio(score-ok, score))
}

// setKernelMetrics measures linalg.Dot and, as the bandwidth ceiling, copy
// at the workload's input width, in GB/s of operands read (and written, for
// copy).
func (b *bench) setKernelMetrics(width int) {
	x := make([]float64, width)
	y := make([]float64, width)
	for i := range x {
		x[i], y[i] = float64(i%7)+0.5, float64(i%5)-1.5
	}
	reps := max(1, (1<<27)/(16*width)) // about 128 MiB of operands per round
	var dots, copies []float64
	var sink float64
	for round := 0; round < 5; round++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			sink += linalg.Dot(x, y)
		}
		dots = append(dots, float64(16*width*reps)/float64(time.Since(start)))
		start = time.Now()
		for i := 0; i < reps; i++ {
			copy(y, x)
		}
		copies = append(copies, float64(16*width*reps)/float64(time.Since(start)))
	}
	runtime.KeepAlive(sink)
	b.set("linalg.dot_gbs", "GB/s", median(dots))
	b.set("linalg.copy_gbs", "GB/s", median(copies))
}
