// Package resource implements the cost accounting behind the paper's Time
// and Memory columns (Tables II–V).
//
// The paper reports CPU-hours and peak GB on the authors' cluster; its
// variant tables report those as *fractions of the full-FRaC run*. Absolute
// numbers depend on hardware, but the fractions are determined by how much
// work and state each variant creates, so this package tracks:
//
//   - Wall time of a run.
//   - CPU time: the sum of per-task durations recorded by the workers. On a
//     parallel run this exceeds wall time, exactly like the paper's
//     CPU-hours metric.
//   - Analytic bytes: training matrices, model parameters, and error models
//     each report their payload sizes; the tracker keeps current and peak
//     totals. This is the deterministic memory measure used for fractions.
package resource

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Cost is the resource bill of one run.
type Cost struct {
	Wall       time.Duration // elapsed wall-clock time
	CPU        time.Duration // summed task time across workers
	PeakBytes  int64         // peak analytic live bytes
	FinalBytes int64         // analytic live bytes at Stop (0 if all released)
}

// Add returns the combination of two costs: durations add; peaks take the
// max (concurrent phases) — used when rolling ensemble members into a total
// where members run sequentially, use AddSequential instead.
func (c Cost) Add(other Cost) Cost {
	out := c
	out.Wall += other.Wall
	out.CPU += other.CPU
	if other.PeakBytes > out.PeakBytes {
		out.PeakBytes = other.PeakBytes
	}
	out.FinalBytes += other.FinalBytes
	return out
}

// Frac returns this cost as fractions of a baseline, the form Tables III–V
// use. Zero baseline components yield 0 to keep reports finite.
func (c Cost) Frac(base Cost) (timeFrac, memFrac float64) {
	if base.CPU > 0 {
		timeFrac = float64(c.CPU) / float64(base.CPU)
	}
	if base.PeakBytes > 0 {
		memFrac = float64(c.PeakBytes) / float64(base.PeakBytes)
	}
	return timeFrac, memFrac
}

// String formats the cost for human-readable reports.
func (c Cost) String() string {
	return fmt.Sprintf("wall=%v cpu=%v peak=%s", c.Wall.Round(time.Millisecond), c.CPU.Round(time.Millisecond), FormatBytes(c.PeakBytes))
}

// FormatBytes renders a byte count with a binary-prefix unit.
func FormatBytes(b int64) string {
	const kib = 1024
	switch {
	case b >= kib*kib*kib:
		return fmt.Sprintf("%.2fGiB", float64(b)/(kib*kib*kib))
	case b >= kib*kib:
		return fmt.Sprintf("%.2fMiB", float64(b)/(kib*kib))
	case b >= kib:
		return fmt.Sprintf("%.2fKiB", float64(b)/kib)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Tracker accumulates the cost of a run. All methods are safe for concurrent
// use by worker goroutines. A nil *Tracker tracks nothing: Alloc, Release
// and TimeTask are no-ops on it, except that TimeTask still runs its task,
// so callers need not check for one.
type Tracker struct {
	start   time.Time
	cpuNs   atomic.Int64
	current atomic.Int64
	peak    atomic.Int64
}

// NewTracker starts a tracker; the wall clock starts immediately.
func NewTracker() *Tracker {
	return &Tracker{start: time.Now()}
}

// AddCPU records d of task time (one worker's time on one task).
func (t *Tracker) AddCPU(d time.Duration) { t.cpuNs.Add(int64(d)) }

// TimeTask runs fn and records its duration as CPU time.
func (t *Tracker) TimeTask(fn func()) {
	if t == nil {
		fn()
		return
	}
	begin := time.Now()
	fn()
	t.AddCPU(time.Since(begin))
}

// Alloc records n live analytic bytes coming into existence and updates the
// peak. Pair with Release when the state is discarded.
func (t *Tracker) Alloc(n int64) {
	if t == nil {
		return
	}
	cur := t.current.Add(n)
	updateMax(&t.peak, cur)
}

// Release records n analytic bytes being discarded.
func (t *Tracker) Release(n int64) {
	if t != nil {
		t.current.Add(-n)
	}
}

// CurrentBytes reports live analytic bytes.
func (t *Tracker) CurrentBytes() int64 { return t.current.Load() }

// PeakBytes reports the peak of live analytic bytes so far.
func (t *Tracker) PeakBytes() int64 { return t.peak.Load() }

// Stop ends the run and returns its cost. The tracker must not be reused.
func (t *Tracker) Stop() Cost {
	return Cost{
		Wall:       time.Since(t.start),
		CPU:        time.Duration(t.cpuNs.Load()),
		PeakBytes:  t.peak.Load(),
		FinalBytes: t.current.Load(),
	}
}

func updateMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
