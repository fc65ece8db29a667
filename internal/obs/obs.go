// Package obs is the run-telemetry core of the FRaC reproduction: phase
// span timing, atomic counters, pool occupancy and queue-wait accounting,
// and heap high-water tracking, surfaced by the CLIs as a live progress
// line and a structured run_metrics.json dump.
//
// Design constraints (DESIGN.md §9):
//
//   - Zero dependencies beyond the standard library, so every package —
//     including the parallel substrate — can import it freely.
//   - Allocation-free when disabled: a nil *Recorder is the off switch, and
//     every method is nil-safe, so instrumented hot paths pay one
//     predictable branch and nothing else. The PR-1 zero-allocation
//     contracts (0 allocs/sample steady state) hold with telemetry off.
//   - Observation only: the recorder never touches RNG streams, work
//     distribution, or result slots, so enabling it cannot change scores —
//     outputs stay bit-identical at every worker count (guarded by
//     TestTelemetryDoesNotChangeScores).
//   - Bounded overhead when enabled: whole-phase spans are O(1) per run;
//     per-term spans are sampled (default 1 in 8) so the enabled overhead
//     budget stays ≤2% on the scoring hot path.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Phase identifies one pipeline stage for span timing.
type Phase uint8

const (
	// PhaseLoad covers dataset reading / synthetic generation.
	PhaseLoad Phase = iota
	// PhaseFilter covers feature selection and dataset projection.
	PhaseFilter
	// PhaseTrain covers whole-model training (all terms of one Train call).
	PhaseTrain
	// PhaseScore covers whole-test-set scoring.
	PhaseScore
	// PhaseCombine covers the ensemble median/mean reduction.
	PhaseCombine
	// PhaseProject covers 1-hot encoding + JL projection.
	PhaseProject
	// PhaseTermTrain is the sampled per-term training span.
	PhaseTermTrain
	// PhaseTermScore is the sampled per-term scoring span.
	PhaseTermScore
	numPhases
)

var phaseNames = [numPhases]string{
	"load", "filter", "train", "score", "combine", "project",
	"term_train", "term_score",
}

// String returns the JSON key of the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// sampledPhase reports whether spans of this phase are sampled rather than
// exhaustive (their counts undercount real events by the sampling factor).
func sampledPhase(p Phase) bool { return p == PhaseTermTrain || p == PhaseTermScore }

// Counter identifies one monotonic event counter.
type Counter uint8

const (
	// CounterTermsTrained counts NS terms trained (all ensemble members).
	CounterTermsTrained Counter = iota
	// CounterTermsScored counts per-term test-set scoring passes.
	CounterTermsScored
	// CounterFeaturesKept counts features surviving a filter.
	CounterFeaturesKept
	// CounterFeaturesDropped counts features removed by a filter.
	CounterFeaturesDropped
	// CounterMembersCombined counts ensemble members folded into totals.
	CounterMembersCombined
	// CounterBytesDecoded counts input bytes parsed (TSV / model loads).
	CounterBytesDecoded
	// CounterTermsMasked counts real terms trained by the in-core SVR
	// trainer (Learners.SVR set). Its JSON key keeps the historical name
	// terms_masked_train.
	CounterTermsMasked
	// CounterTermsGathered counts non-marginal terms trained through the
	// gather-and-copy loop and Learners.Real/Cat: categorical targets, tree
	// or custom learners, and the SVR reference route (Learners.SVR nil).
	CounterTermsGathered
	// CounterDesignCacheBytes accumulates how many bytes the in-core
	// trainer's per-worker design buffers grew by; it stops moving once
	// every worker's buffer fits the widest term.
	CounterDesignCacheBytes
	numCounters
)

var counterNames = [numCounters]string{
	"terms_trained", "terms_scored", "features_kept", "features_dropped",
	"members_combined", "bytes_decoded", "terms_masked_train",
	"terms_gather_train", "design_cache_bytes",
}

// String returns the JSON key of the counter.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// histBuckets is the Histogram resolution: bucket i counts values with
// 2^(i-1) ≤ v < 2^i (bucket 0 holds 0). In nanoseconds that spans sub-µs
// token handoffs to minute-long stalls; in rows or requests it exceeds any
// batch.
const histBuckets = 40

// Histogram is a lock-free power-of-two histogram that also keeps the count
// and sum of the values it observed. Values past the last bucket land in
// it. The zero value is ready; Observe is allocation-free and safe for
// concurrent use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value; negative values count as 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the number of observed values.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Samples renders the histogram as Prometheus _bucket/_sum/_count series;
// see histogramSamples for unit and labels.
func (h *Histogram) Samples(unit float64, labels ...Label) []MetricSample {
	return histogramSamples(h.snapshot(), h.count.Load(), h.sum.Load(), unit, labels)
}

// quantile returns an upper bound for the q-quantile (0 < q ≤ 1) of the
// recorded values, using bucket upper edges.
func (h *Histogram) quantile(q float64) int64 {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total == 0 {
		return 0
	}
	// Ceiling target: the q-quantile rank of n samples is ceil(q*n), so e.g.
	// p99 of 11 samples is the 11th order statistic, not the 10th.
	target := int64(q * float64(total))
	if float64(target) < q*float64(total) {
		target++
	}
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			if i == 0 {
				return 1
			}
			return 1 << uint(i)
		}
	}
	return 1 << (histBuckets - 1)
}

// snapshot returns the bucket counts with trailing empty buckets trimmed.
func (h *Histogram) snapshot() []int64 {
	last := -1
	out := make([]int64, histBuckets)
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
		if out[i] != 0 {
			last = i
		}
	}
	return out[:last+1]
}

// phaseStat accumulates span observations for one phase.
type phaseStat struct {
	count atomic.Int64
	ns    atomic.Int64
	min   atomic.Int64 // 0 when unset; stores ns+1 so a 0ns span registers
	max   atomic.Int64
}

func (s *phaseStat) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	s.count.Add(1)
	s.ns.Add(ns)
	updateMax(&s.max, ns)
	updateMinShifted(&s.min, ns+1)
}

// poolStats is the parallel.Limit instrumentation block: occupancy gauges,
// acquire counters, and the queue-wait histogram.
type poolStats struct {
	capacity    atomic.Int64
	busy        atomic.Int64
	busyPeak    atomic.Int64
	waiting     atomic.Int64
	waitingPeak atomic.Int64

	acquires  atomic.Int64 // tokens successfully obtained
	blocked   atomic.Int64 // acquires that had to queue first
	cancelled atomic.Int64 // queued acquires abandoned on cancellation
	releases  atomic.Int64

	waitMax  atomic.Int64
	waitHist Histogram // queue waits in ns
}

// Recorder collects one run's telemetry. The zero value is NOT ready; use
// New. A nil *Recorder is the disabled state: every method is a no-op.
type Recorder struct {
	start       time.Time
	sampleEvery int64

	// journal and spans are the optional live sinks: a streaming JSONL event
	// journal and a bounded in-memory span log for trace-event export. Both
	// are attached before the run's fan-out starts (Session.Start) and only
	// read concurrently through their own synchronization, so the fields
	// themselves need no atomics.
	journal *Journal
	spans   *spanLog

	phases   [numPhases]phaseStat
	counters [numCounters]atomic.Int64
	tick     atomic.Int64 // per-term span sampling clock

	planned atomic.Int64 // planned term-level work units (train + score)

	pool poolStats

	heapPeak      atomic.Int64
	analyticPeak  atomic.Int64
	analyticFinal atomic.Int64
}

// New returns an enabled recorder with the default per-term span sampling
// rate (1 in 8). The wall clock starts immediately.
func New() *Recorder {
	return &Recorder{start: time.Now(), sampleEvery: 8}
}

// Enabled reports whether telemetry is being collected.
func (r *Recorder) Enabled() bool { return r != nil }

// SetSampleEvery sets the per-term span sampling period (n ≤ 1 records every
// term span). Whole-phase spans are never sampled.
func (r *Recorder) SetSampleEvery(n int) {
	if r == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	r.sampleEvery = int64(n)
}

// SampleEvery reports the per-term span sampling period (0 when disabled),
// recorded in the run manifest so journal and trace consumers can scale
// sampled span counts back to real event rates.
func (r *Recorder) SampleEvery() int {
	if r == nil {
		return 0
	}
	return int(r.sampleEvery)
}

// Span is an in-flight phase timing; obtained from Start/StartSampled and
// closed with End. The zero Span (disabled recorder, or a sampled-out term)
// is a valid no-op.
type Span struct {
	r      *Recorder
	phase  Phase
	worker int32 // worker index for term spans; -1 for whole-phase spans
	t0     time.Time
}

// Start opens a span for a whole-phase timing. Nil-safe.
func (r *Recorder) Start(p Phase) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, phase: p, worker: -1, t0: time.Now()}
}

// StartSampled opens a per-term span subject to the sampling period: only
// one in sampleEvery calls returns a live span; the rest return the no-op
// Span. Sampling bounds the enabled-telemetry overhead on runs with many
// cheap terms.
func (r *Recorder) StartSampled(p Phase) Span {
	return r.StartSampledWorker(p, -1)
}

// StartSampledWorker is StartSampled with worker-track attribution: the
// sampled span carries the calling worker's index, so journal events and
// exported trace tracks show which worker ran the term. The attribution is
// observation-only — sampling and statistics are identical to StartSampled.
func (r *Recorder) StartSampledWorker(p Phase, worker int) Span {
	if r == nil {
		return Span{}
	}
	if r.sampleEvery > 1 && r.tick.Add(1)%r.sampleEvery != 0 {
		return Span{}
	}
	return Span{r: r, phase: p, worker: int32(worker), t0: time.Now()}
}

// End closes the span, folding its duration into the phase statistics and —
// when the live sinks are attached — the span log and the event journal.
func (s Span) End() {
	if s.r == nil {
		return
	}
	dur := int64(time.Since(s.t0))
	s.r.phases[s.phase].observe(dur)
	if s.r.spans == nil && s.r.journal == nil {
		return
	}
	startNs := int64(s.t0.Sub(s.r.start))
	if s.r.spans != nil {
		s.r.spans.add(s.phase, s.worker, startNs, dur)
	}
	if s.r.journal != nil {
		s.r.journal.span(s.phase, s.worker, startNs, dur)
	}
}

// Annotate forwards a key/value annotation to the event journal (for
// example, the eval harness labels which sweep cell a phase belongs to).
// A no-op without an attached journal, so callers may annotate freely.
func (r *Recorder) Annotate(key, value string) {
	if r == nil || r.journal == nil {
		return
	}
	r.journal.annotate(key, value)
}

// Add increments a counter by n. Nil-safe.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// Count reads a counter's current value (0 when disabled).
func (r *Recorder) Count(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// AddPlanned registers n upcoming term-level work units (term trainings and
// per-term scoring passes), the denominator of the progress/ETA line.
func (r *Recorder) AddPlanned(n int64) {
	if r == nil {
		return
	}
	r.planned.Add(n)
}

// progress returns completed and planned term-level work units.
func (r *Recorder) progress() (done, planned int64) {
	if r == nil {
		return 0, 0
	}
	return r.counters[CounterTermsTrained].Load() + r.counters[CounterTermsScored].Load(),
		r.planned.Load()
}

// --- pool instrumentation (called by parallel.Limit) --------------------

// PoolCapacity records the instrumented pool's token capacity.
func (r *Recorder) PoolCapacity(n int) {
	if r == nil {
		return
	}
	r.pool.capacity.Store(int64(n))
}

// PoolWaitBegin records a goroutine entering the acquire queue.
func (r *Recorder) PoolWaitBegin() {
	if r == nil {
		return
	}
	updateMax(&r.pool.waitingPeak, r.pool.waiting.Add(1))
}

// PoolAcquired records a token grant. wait is the queue time (0 for the
// uncontended fast path); blocked reports whether the caller queued — a
// blocked grant also closes out the PoolWaitBegin gauge.
func (r *Recorder) PoolAcquired(wait time.Duration, blocked bool) {
	if r == nil {
		return
	}
	if blocked {
		r.pool.waiting.Add(-1)
		r.pool.blocked.Add(1)
		r.observeWait(int64(wait))
	}
	r.pool.acquires.Add(1)
	updateMax(&r.pool.busyPeak, r.pool.busy.Add(1))
}

// PoolWaitAbandoned closes out a queued acquire that a cancelled context
// abandoned before a token arrived: the waiting gauge decrements and the
// partial queue time still lands in the wait histogram, so cancellation
// cannot leak in-flight gauges or silently discard wait time.
func (r *Recorder) PoolWaitAbandoned(wait time.Duration) {
	if r == nil {
		return
	}
	r.pool.waiting.Add(-1)
	r.pool.cancelled.Add(1)
	r.observeWait(int64(wait))
}

// PoolReleased records a token return.
func (r *Recorder) PoolReleased() {
	if r == nil {
		return
	}
	r.pool.busy.Add(-1)
	r.pool.releases.Add(1)
}

// PoolGauges reads the live occupancy gauges; both must be zero when the
// pool is quiescent (the soak test's no-leak invariant).
func (r *Recorder) PoolGauges() (busy, waiting int64) {
	if r == nil {
		return 0, 0
	}
	return r.pool.busy.Load(), r.pool.waiting.Load()
}

func (r *Recorder) observeWait(ns int64) {
	if ns < 0 {
		ns = 0
	}
	updateMax(&r.pool.waitMax, ns)
	r.pool.waitHist.Observe(ns)
}

// --- memory tracking ----------------------------------------------------

// ObserveHeap folds a sampled heap size into the high-water mark. Callers
// (the progress loop, Snapshot) read runtime.MemStats; the recorder itself
// stays clock- and runtime-free so hot paths never trigger a heap scan.
func (r *Recorder) ObserveHeap(heapAlloc int64) {
	if r == nil {
		return
	}
	updateMax(&r.heapPeak, heapAlloc)
}

// SetAnalytic folds a run's deterministic analytic-memory accounting
// (resource.Tracker peak/final bytes) into the metrics; the peak takes the
// max across calls so per-replicate trackers roll up naturally.
func (r *Recorder) SetAnalytic(peak, final int64) {
	if r == nil {
		return
	}
	updateMax(&r.analyticPeak, peak)
	r.analyticFinal.Store(final)
}

// --- atomic helpers -----------------------------------------------------

func updateMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// updateMinShifted maintains a minimum where 0 means "unset" (values are
// stored shifted by +1 by the caller).
func updateMinShifted(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur != 0 && v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
