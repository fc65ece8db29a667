package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"frac/internal/drift"
	"frac/internal/obs"
)

// Serving metrics, exported through the -debug-addr Prometheus endpoint as
// additional frac_serve_* families next to the recorder's run metrics
// (httpserve.Options.Extra). Everything is lock-free atomics on the hot
// path; the exposition rebuilds families per scrape, mirroring
// obs.Metrics.Families.

// Request endpoints, the label space of frac_serve_requests_total.
type endpoint int

const (
	epScore endpoint = iota
	epModels
	epReload
	epHealthz
	epHealth
	numEndpoints
)

var endpointNames = [numEndpoints]string{"score", "models", "reload", "healthz", "health"}

// Status-code classes, the second label of frac_serve_requests_total.
const (
	code2xx = iota
	code4xx
	code5xx
	numCodeClasses
)

var codeClassNames = [numCodeClasses]string{"2xx", "4xx", "5xx"}

func codeClass(status int) int {
	switch {
	case status >= 500:
		return code5xx
	case status >= 400:
		return code4xx
	default:
		return code2xx
	}
}

// ModelMetrics is one served model's share of the registry: batcher
// accounting plus the drift snapshot hook, all labeled with the model name
// in the exposition. All observe methods are nil-safe no-ops.
type ModelMetrics struct {
	model string

	batchRows  obs.Histogram // rows per flush (batch occupancy)
	batchReqs  obs.Histogram // coalesced requests per flush
	queueWait  obs.Histogram // per request, enqueue to flush start, ns
	flushes    [numFlushReasons]atomic.Int64
	flushErrs  atomic.Int64
	rowsScored atomic.Int64
	queuePeak  atomic.Int64

	explainReqs  atomic.Int64
	explainRows  atomic.Int64
	explainDepth obs.Histogram // requested attribution depth k per explain request

	// Drift, when set, supplies the model's current drift snapshot per
	// scrape (nil when the model is unmonitored).
	Drift func() *drift.Snapshot
}

// observeFlush records one batch flush.
func (m *ModelMetrics) observeFlush(reason, rows, reqs int, ok bool) {
	if m == nil {
		return
	}
	m.flushes[reason].Add(1)
	m.batchRows.Observe(int64(rows))
	m.batchReqs.Observe(int64(reqs))
	if ok {
		m.rowsScored.Add(int64(rows))
	} else {
		m.flushErrs.Add(1)
	}
}

// observeQueueWait records, for every request of a flush that is starting,
// its time from enqueue to now.
func (m *ModelMetrics) observeQueueWait(reqs []*request) {
	if m == nil {
		return
	}
	now := time.Now()
	for _, req := range reqs {
		m.queueWait.Observe(now.Sub(req.enqueued).Nanoseconds())
	}
}

// observeExplain records one served explain request (k > 0) and its rows.
func (m *ModelMetrics) observeExplain(k, rows int) {
	if m == nil {
		return
	}
	m.explainReqs.Add(1)
	m.explainRows.Add(int64(rows))
	m.explainDepth.Observe(int64(k))
}

// observeQueueDepth tracks the pending-queue high-water mark.
func (m *ModelMetrics) observeQueueDepth(d int) {
	if m == nil {
		return
	}
	for {
		peak := m.queuePeak.Load()
		if int64(d) <= peak || m.queuePeak.CompareAndSwap(peak, int64(d)) {
			return
		}
	}
}

// Metrics is the serving-side metric registry: request accounting by
// endpoint plus per-model batcher/drift families. All observe methods are
// nil-safe no-ops so instrumentation can be wired through unconditionally.
type Metrics struct {
	requests [numEndpoints][numCodeClasses]atomic.Int64
	latency  [numEndpoints]obs.Histogram // request wall time, ns

	// scoreSplit separates /v1/score wall time by whether the request asked
	// for explanations (index 1) or not (index 0), so the attribution
	// overhead is directly readable from one scrape instead of inferred.
	scoreSplit [2]obs.Histogram

	mu       sync.Mutex
	perModel map[string]*ModelMetrics

	// QueueDepth, when set, is the live pending-queue gauge hook (total
	// across models). The gauge is always exported — 0 when no hook is
	// wired — so dashboards can rely on the series existing.
	QueueDepth func() int
}

// ForModel returns the named model's metrics, creating them on first use.
// Nil-safe: a nil registry yields a nil ModelMetrics (all observes no-op).
func (m *Metrics) ForModel(name string) *ModelMetrics {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.perModel == nil {
		m.perModel = make(map[string]*ModelMetrics)
	}
	mm := m.perModel[name]
	if mm == nil {
		mm = &ModelMetrics{model: name}
		m.perModel[name] = mm
	}
	return mm
}

// models returns the per-model metrics sorted by name (stable exposition).
func (m *Metrics) models() []*ModelMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*ModelMetrics, 0, len(m.perModel))
	for _, mm := range m.perModel {
		out = append(out, mm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].model < out[j].model })
	return out
}

// observeRequest records one completed HTTP request.
func (m *Metrics) observeRequest(ep endpoint, status int, ns int64) {
	if m == nil {
		return
	}
	m.requests[ep][codeClass(status)].Add(1)
	m.latency[ep].Observe(ns)
}

// observeScoreSplit records one completed /v1/score request into the
// explain-on or explain-off latency histogram.
func (m *Metrics) observeScoreSplit(explained bool, ns int64) {
	if m == nil {
		return
	}
	i := 0
	if explained {
		i = 1
	}
	m.scoreSplit[i].Observe(ns)
}

// Families renders the frac_serve_* exposition families.
func (m *Metrics) Families() []obs.MetricFamily {
	if m == nil {
		return nil
	}
	var fams []obs.MetricFamily
	add := func(name, help string, typ obs.MetricType, samples ...obs.MetricSample) {
		fams = append(fams, obs.MetricFamily{Name: name, Help: help, Type: typ, Samples: samples})
	}

	var reqSamples []obs.MetricSample
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		for c := 0; c < numCodeClasses; c++ {
			if v := m.requests[ep][c].Load(); v > 0 {
				reqSamples = append(reqSamples, obs.MetricSample{
					Labels: []obs.Label{
						{Name: "endpoint", Value: endpointNames[ep]},
						{Name: "code", Value: codeClassNames[c]},
					},
					Value: float64(v),
				})
			}
		}
	}
	add("frac_serve_requests_total",
		"Completed HTTP requests by endpoint and status class.", obs.TypeCounter, reqSamples...)

	for ep := endpoint(0); ep < numEndpoints; ep++ {
		if m.latency[ep].Count() == 0 {
			continue
		}
		add(fmt.Sprintf("frac_serve_%s_seconds", endpointNames[ep]),
			"Request wall-time distribution for /"+endpointNames[ep]+" (power-of-two buckets).",
			obs.TypeHistogram, m.latency[ep].Samples(1e9)...)
	}

	var splitSamples []obs.MetricSample
	for i, onOff := range [2]string{"off", "on"} {
		if m.scoreSplit[i].Count() == 0 {
			continue
		}
		splitSamples = append(splitSamples,
			m.scoreSplit[i].Samples(1e9, obs.Label{Name: "explain", Value: onOff})...)
	}
	if splitSamples != nil {
		add("frac_serve_explain_latency_seconds",
			"/v1/score wall time split by attribution capture (explain=on|off).",
			obs.TypeHistogram, splitSamples...)
	}

	models := m.models()
	mlabel := func(mm *ModelMetrics, more ...obs.Label) []obs.Label {
		out := make([]obs.Label, 0, 1+len(more))
		out = append(out, obs.Label{Name: "model", Value: mm.model})
		return append(out, more...)
	}
	var batchRows, batchReqs, queueWait, flushSamples, flushErrSamples, rowsScoredSamples, peakSamples []obs.MetricSample
	var explainReqSamples, explainRowSamples, explainDepthSamples []obs.MetricSample
	for _, mm := range models {
		batchRows = append(batchRows, mm.batchRows.Samples(1, obs.Label{Name: "model", Value: mm.model})...)
		batchReqs = append(batchReqs, mm.batchReqs.Samples(1, obs.Label{Name: "model", Value: mm.model})...)
		queueWait = append(queueWait, mm.queueWait.Samples(1e9, obs.Label{Name: "model", Value: mm.model})...)
		explainReqSamples = append(explainReqSamples,
			obs.MetricSample{Labels: mlabel(mm), Value: float64(mm.explainReqs.Load())})
		explainRowSamples = append(explainRowSamples,
			obs.MetricSample{Labels: mlabel(mm), Value: float64(mm.explainRows.Load())})
		if mm.explainDepth.Count() > 0 {
			explainDepthSamples = append(explainDepthSamples,
				mm.explainDepth.Samples(1, obs.Label{Name: "model", Value: mm.model})...)
		}
		for r := 0; r < numFlushReasons; r++ {
			if v := mm.flushes[r].Load(); v > 0 {
				flushSamples = append(flushSamples, obs.MetricSample{
					Labels: mlabel(mm, obs.Label{Name: "reason", Value: flushReasonNames[r]}),
					Value:  float64(v),
				})
			}
		}
		flushErrSamples = append(flushErrSamples,
			obs.MetricSample{Labels: mlabel(mm), Value: float64(mm.flushErrs.Load())})
		rowsScoredSamples = append(rowsScoredSamples,
			obs.MetricSample{Labels: mlabel(mm), Value: float64(mm.rowsScored.Load())})
		peakSamples = append(peakSamples,
			obs.MetricSample{Labels: mlabel(mm), Value: float64(mm.queuePeak.Load())})
	}
	add("frac_serve_batch_rows",
		"Batch occupancy: rows per flush (power-of-two buckets).",
		obs.TypeHistogram, batchRows...)
	add("frac_serve_batch_requests",
		"Coalesced requests per flush (power-of-two buckets).",
		obs.TypeHistogram, batchReqs...)
	add("frac_serve_queue_wait_seconds",
		"Per-request time from enqueue to the start of its flush (power-of-two buckets).",
		obs.TypeHistogram, queueWait...)
	add("frac_serve_flushes_total",
		"Batch flushes by reason (full/empty/drain).", obs.TypeCounter, flushSamples...)
	add("frac_serve_flush_errors_total",
		"Flushes whose scoring failed.", obs.TypeCounter, flushErrSamples...)
	add("frac_serve_rows_scored_total",
		"Rows scored through the batcher.", obs.TypeCounter, rowsScoredSamples...)
	add("frac_serve_queue_depth_peak",
		"Pending-queue high-water mark.", obs.TypeGauge, peakSamples...)
	add("frac_serve_explain_requests_total",
		"Score requests served with attribution capture (explain > 0).",
		obs.TypeCounter, explainReqSamples...)
	add("frac_serve_explain_rows_total",
		"Rows whose attributions were captured and returned.",
		obs.TypeCounter, explainRowSamples...)
	add("frac_serve_explain_depth",
		"Requested attribution depth k per explain request (power-of-two buckets).",
		obs.TypeHistogram, explainDepthSamples...)
	depth := 0
	if m.QueueDepth != nil {
		depth = m.QueueDepth()
	}
	add("frac_serve_queue_depth",
		"Requests currently queued for batching.", obs.TypeGauge,
		obs.MetricSample{Value: float64(depth)})

	fams = append(fams, m.driftFamilies(models)...)
	return fams
}

// driftFamilies renders the frac_serve_drift_* families for every monitored
// model (models without a drift snapshot contribute no samples).
func (m *Metrics) driftFamilies(models []*ModelMetrics) []obs.MetricFamily {
	type snap struct {
		mm *ModelMetrics
		s  *drift.Snapshot
	}
	var snaps []snap
	for _, mm := range models {
		if mm.Drift != nil {
			if s := mm.Drift(); s != nil {
				snaps = append(snaps, snap{mm, s})
			}
		}
	}
	if len(snaps) == 0 {
		return nil
	}
	gauge := func(name, help string, value func(snap) float64) obs.MetricFamily {
		f := obs.MetricFamily{Name: name, Help: help, Type: obs.TypeGauge}
		for _, sn := range snaps {
			f.Samples = append(f.Samples, obs.MetricSample{
				Labels: []obs.Label{{Name: "model", Value: sn.mm.model}},
				Value:  value(sn),
			})
		}
		return f
	}
	fams := []obs.MetricFamily{
		gauge("frac_serve_drift_state",
			"Drift verdict: 0 healthy, 1 drifting, 2 retrain_recommended.",
			func(sn snap) float64 { return float64(sn.s.State) }),
		gauge("frac_serve_drift_psi",
			"Debiased population stability index of the last closed window vs the reference.",
			func(sn snap) float64 { return sn.s.PSI }),
		gauge("frac_serve_drift_ks",
			"Kolmogorov-Smirnov distance of the last closed window at the reference quantiles.",
			func(sn snap) float64 { return sn.s.KS }),
		gauge("frac_serve_drift_log_martingale",
			"Log wealth of the sequential drift martingale (alarm evidence).",
			func(sn snap) float64 { return sn.s.LogM }),
		gauge("frac_serve_drift_window_fill",
			"Samples accumulated in the currently open window.",
			func(sn snap) float64 { return float64(sn.s.WindowFill) }),
	}
	samples := gauge("frac_serve_drift_samples_total",
		"Served scores observed by the drift monitor.",
		func(sn snap) float64 { return float64(sn.s.Samples) })
	samples.Type = obs.TypeCounter
	windows := gauge("frac_serve_drift_windows_total",
		"Drift comparison windows closed.",
		func(sn snap) float64 { return float64(sn.s.Windows) })
	windows.Type = obs.TypeCounter
	fams = append(fams, samples, windows)

	qf := obs.MetricFamily{
		Name: "frac_serve_drift_ns_quantile",
		Help: "Lifetime served-NS quantiles (P2 streaming estimates).",
		Type: obs.TypeGauge,
	}
	for _, sn := range snaps {
		for _, q := range []struct {
			label string
			v     float64
		}{{"0.5", sn.s.P50}, {"0.95", sn.s.P95}, {"0.99", sn.s.P99}} {
			qf.Samples = append(qf.Samples, obs.MetricSample{
				Labels: []obs.Label{
					{Name: "model", Value: sn.mm.model},
					{Name: "q", Value: q.label},
				},
				Value: q.v,
			})
		}
	}
	fams = append(fams, qf)

	tf := obs.MetricFamily{
		Name: "frac_serve_drift_top_term_shift",
		Help: "Standardized mean shift of the most-drifted terms in the last closed window.",
		Type: obs.TypeGauge,
	}
	for _, sn := range snaps {
		for _, ts := range sn.s.Top {
			tf.Samples = append(tf.Samples, obs.MetricSample{
				Labels: []obs.Label{
					{Name: "model", Value: sn.mm.model},
					{Name: "term", Value: fmt.Sprintf("%d", ts.Term)},
				},
				Value: ts.Shift,
			})
		}
	}
	fams = append(fams, tf)
	return fams
}
