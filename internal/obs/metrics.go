package obs

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"
)

// PhaseMetrics is one phase's span statistics in a metrics snapshot.
type PhaseMetrics struct {
	// Count is the number of recorded spans. For sampled phases
	// (term_train/term_score) this undercounts real events by the sampling
	// factor; the exhaustive event counts live in Counters.
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MinNs   int64 `json:"min_ns"`
	MaxNs   int64 `json:"max_ns"`
	MeanNs  int64 `json:"mean_ns"`
	// Sampled marks phases whose spans are subject to the sampling period.
	Sampled bool `json:"sampled,omitempty"`
}

// WaitMetrics summarizes the pool queue-wait distribution.
type WaitMetrics struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MaxNs   int64 `json:"max_ns"`
	P50Ns   int64 `json:"p50_ns"`
	P90Ns   int64 `json:"p90_ns"`
	P99Ns   int64 `json:"p99_ns"`
	// Buckets is the power-of-two histogram: Buckets[i] counts waits with
	// 2^(i-1) ≤ ns < 2^i (trailing empty buckets trimmed).
	Buckets []int64 `json:"buckets,omitempty"`
}

// PoolMetrics is the shared compute pool's occupancy and contention summary.
type PoolMetrics struct {
	Capacity          int64       `json:"capacity"`
	Busy              int64       `json:"busy"`    // live gauge at snapshot (0 when quiescent)
	Waiting           int64       `json:"waiting"` // live gauge at snapshot (0 when quiescent)
	BusyPeak          int64       `json:"busy_peak"`
	WaitingPeak       int64       `json:"waiting_peak"`
	Acquires          int64       `json:"acquires"`
	BlockingAcquires  int64       `json:"blocking_acquires"`
	CancelledAcquires int64       `json:"cancelled_acquires"`
	Releases          int64       `json:"releases"`
	QueueWait         WaitMetrics `json:"queue_wait"`
}

// MemoryMetrics reports the run's memory high-water marks.
type MemoryMetrics struct {
	// HeapPeakBytes is the sampled runtime heap high-water (progress-loop
	// ticks plus the snapshot itself); GC timing makes it noisy.
	HeapPeakBytes int64 `json:"heap_peak_bytes"`
	// AnalyticPeakBytes is the deterministic peak from resource.Tracker
	// accounting (training matrices, models, error models) — the measure
	// behind the paper's memory fractions.
	AnalyticPeakBytes  int64 `json:"analytic_peak_bytes"`
	AnalyticFinalBytes int64 `json:"analytic_final_bytes"`
	// HeapSysBytes is the OS-visible heap footprint at snapshot time.
	HeapSysBytes int64 `json:"heap_sys_bytes"`
	NumGC        int64 `json:"num_gc"`
}

// ProgressMetrics reports term-level work accounting.
type ProgressMetrics struct {
	PlannedTerms   int64 `json:"planned_terms"`
	CompletedTerms int64 `json:"completed_terms"`
}

// Metrics is the run_metrics.json document: a complete structured dump of
// one run's telemetry plus its manifest.
type Metrics struct {
	Manifest *Manifest `json:"manifest,omitempty"`
	// Cancelled marks a document written for a run that was interrupted
	// (SIGINT/SIGTERM): the numbers are a valid but partial account of the
	// work done before cancellation.
	Cancelled bool                    `json:"cancelled,omitempty"`
	WallNs    int64                   `json:"wall_ns"`
	Phases    map[string]PhaseMetrics `json:"phases"`
	Counters  map[string]int64        `json:"counters"`
	Pool      *PoolMetrics            `json:"pool,omitempty"`
	Memory    MemoryMetrics           `json:"memory"`
	Progress  ProgressMetrics         `json:"progress"`
}

// Snapshot renders the recorder's current state. It reads runtime.MemStats
// once (folding the result into the heap high-water), so a snapshot at run
// end observes the final heap even if no progress loop sampled it. Safe to
// call while work is still in flight. Returns the zero Metrics when the
// recorder is disabled.
func (r *Recorder) Snapshot() Metrics {
	if r == nil {
		return Metrics{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.ObserveHeap(int64(ms.HeapAlloc))

	m := Metrics{
		WallNs:   int64(time.Since(r.start)),
		Phases:   make(map[string]PhaseMetrics, numPhases),
		Counters: make(map[string]int64, numCounters),
	}
	for p := Phase(0); p < numPhases; p++ {
		st := &r.phases[p]
		count := st.count.Load()
		if count == 0 {
			continue
		}
		total := st.ns.Load()
		m.Phases[p.String()] = PhaseMetrics{
			Count:   count,
			TotalNs: total,
			MinNs:   st.min.Load() - 1,
			MaxNs:   st.max.Load(),
			MeanNs:  total / count,
			Sampled: sampledPhase(p),
		}
	}
	for c := Counter(0); c < numCounters; c++ {
		m.Counters[c.String()] = r.counters[c].Load()
	}
	if capacity := r.pool.capacity.Load(); capacity > 0 {
		m.Pool = &PoolMetrics{
			Capacity:          capacity,
			Busy:              r.pool.busy.Load(),
			Waiting:           r.pool.waiting.Load(),
			BusyPeak:          r.pool.busyPeak.Load(),
			WaitingPeak:       r.pool.waitingPeak.Load(),
			Acquires:          r.pool.acquires.Load(),
			BlockingAcquires:  r.pool.blocked.Load(),
			CancelledAcquires: r.pool.cancelled.Load(),
			Releases:          r.pool.releases.Load(),
			QueueWait: WaitMetrics{
				Count:   r.pool.waitHist.count.Load(),
				TotalNs: r.pool.waitHist.sum.Load(),
				MaxNs:   r.pool.waitMax.Load(),
				P50Ns:   r.pool.waitHist.quantile(0.50),
				P90Ns:   r.pool.waitHist.quantile(0.90),
				P99Ns:   r.pool.waitHist.quantile(0.99),
				Buckets: r.pool.waitHist.snapshot(),
			},
		}
	}
	m.Memory = MemoryMetrics{
		HeapPeakBytes:      r.heapPeak.Load(),
		AnalyticPeakBytes:  r.analyticPeak.Load(),
		AnalyticFinalBytes: r.analyticFinal.Load(),
		HeapSysBytes:       int64(ms.HeapSys),
		NumGC:              int64(ms.NumGC),
	}
	done, planned := r.progress()
	m.Progress = ProgressMetrics{PlannedTerms: planned, CompletedTerms: done}
	return m
}

// WriteJSON writes the metrics document as indented JSON.
func (m Metrics) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}

// WriteFile writes the metrics document to path.
func (m Metrics) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
