package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// This file is the named-metric registry behind the debug server's /metrics
// endpoint: it maps a Metrics snapshot onto Prometheus text exposition
// (format 0.0.4, readable by every Prometheus/OpenMetrics scraper).
//
// Naming conventions (DESIGN.md §11): everything lives under the frac_
// namespace; monotonic event counts end in _total; durations are seconds;
// sizes are bytes; the pool queue-wait distribution is exported as a
// cumulative histogram whose le edges are the recorder's power-of-two
// nanosecond buckets converted to seconds.

// MetricType is the exposition type of a family.
type MetricType string

// Exposition metric types.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Label is one exposition label pair.
type Label struct {
	Name, Value string
}

// MetricSample is one exposed time-series point. Suffix extends the family
// name (histogram _bucket/_sum/_count series); it is empty for plain
// counters and gauges.
type MetricSample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// MetricFamily is one named metric with help text, a type, and its samples.
type MetricFamily struct {
	Name    string
	Help    string
	Type    MetricType
	Samples []MetricSample
}

// Families maps the snapshot onto the full registry of named metrics. The
// registry is rebuilt per scrape from the snapshot's consistent view, so the
// exposition needs no extra synchronization with the run.
func (m Metrics) Families() []MetricFamily {
	var fams []MetricFamily
	add := func(name, help string, typ MetricType, samples ...MetricSample) {
		fams = append(fams, MetricFamily{Name: name, Help: help, Type: typ, Samples: samples})
	}
	one := func(v float64) []MetricSample { return []MetricSample{{Value: v}} }

	if m.Manifest != nil {
		add("frac_build_info",
			"Build and run identity; value is always 1.", TypeGauge,
			MetricSample{Labels: []Label{
				{"tool", m.Manifest.Tool},
				{"version", m.Manifest.Build.Version},
				{"commit", m.Manifest.Build.Commit},
				{"go_version", m.Manifest.Build.GoVersion},
				{"variant", m.Manifest.Variant},
			}, Value: 1})
	}
	add("frac_run_wall_seconds",
		"Wall-clock seconds since the run's recorder started.", TypeGauge,
		one(float64(m.WallNs)/1e9)...)
	add("frac_run_cancelled",
		"1 when this snapshot describes a cancelled (partial) run.", TypeGauge,
		one(boolGauge(m.Cancelled))...)

	// Event counters.
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		add("frac_"+name+"_total",
			"Monotonic run counter "+name+".", TypeCounter,
			one(float64(m.Counters[name]))...)
	}

	// Phase span statistics, labeled by phase.
	var spanCount, spanSeconds, spanMax []MetricSample
	for p := Phase(0); p < numPhases; p++ {
		pm, ok := m.Phases[p.String()]
		if !ok {
			continue
		}
		labels := []Label{{"phase", p.String()}}
		spanCount = append(spanCount, MetricSample{Labels: labels, Value: float64(pm.Count)})
		spanSeconds = append(spanSeconds, MetricSample{Labels: labels, Value: float64(pm.TotalNs) / 1e9})
		spanMax = append(spanMax, MetricSample{Labels: labels, Value: float64(pm.MaxNs) / 1e9})
	}
	add("frac_phase_spans_total",
		"Completed phase spans (term_train/term_score are sampled; see frac_terms_*_total for exhaustive counts).",
		TypeCounter, spanCount...)
	add("frac_phase_seconds_total",
		"Summed span seconds per phase.", TypeCounter, spanSeconds...)
	add("frac_phase_span_max_seconds",
		"Longest observed span per phase.", TypeGauge, spanMax...)

	// Progress gauges.
	add("frac_terms_planned",
		"Planned term-level work units (train + score).", TypeGauge,
		one(float64(m.Progress.PlannedTerms))...)
	add("frac_terms_completed",
		"Completed term-level work units.", TypeGauge,
		one(float64(m.Progress.CompletedTerms))...)

	// Memory gauges.
	add("frac_heap_peak_bytes",
		"Sampled Go heap high-water mark.", TypeGauge,
		one(float64(m.Memory.HeapPeakBytes))...)
	add("frac_heap_sys_bytes",
		"OS-visible heap footprint at snapshot time.", TypeGauge,
		one(float64(m.Memory.HeapSysBytes))...)
	add("frac_analytic_peak_bytes",
		"Deterministic analytic-memory peak (resource.Tracker).", TypeGauge,
		one(float64(m.Memory.AnalyticPeakBytes))...)
	add("frac_analytic_final_bytes",
		"Analytic bytes retained at snapshot time.", TypeGauge,
		one(float64(m.Memory.AnalyticFinalBytes))...)
	add("frac_gc_cycles_total",
		"Completed GC cycles.", TypeCounter,
		one(float64(m.Memory.NumGC))...)

	if m.Pool != nil {
		add("frac_pool_capacity", "Compute-pool token capacity.", TypeGauge,
			one(float64(m.Pool.Capacity))...)
		add("frac_pool_busy", "Tokens currently held.", TypeGauge,
			one(float64(m.Pool.Busy))...)
		add("frac_pool_waiting", "Goroutines queued for a token.", TypeGauge,
			one(float64(m.Pool.Waiting))...)
		add("frac_pool_busy_peak", "Peak concurrent token holders.", TypeGauge,
			one(float64(m.Pool.BusyPeak))...)
		add("frac_pool_waiting_peak", "Peak acquire-queue depth.", TypeGauge,
			one(float64(m.Pool.WaitingPeak))...)
		add("frac_pool_acquires_total", "Tokens granted.", TypeCounter,
			one(float64(m.Pool.Acquires))...)
		add("frac_pool_blocking_acquires_total", "Grants that queued first.", TypeCounter,
			one(float64(m.Pool.BlockingAcquires))...)
		add("frac_pool_cancelled_acquires_total", "Queued acquires abandoned on cancellation.", TypeCounter,
			one(float64(m.Pool.CancelledAcquires))...)
		add("frac_pool_releases_total", "Tokens returned.", TypeCounter,
			one(float64(m.Pool.Releases))...)
		add("frac_pool_queue_wait_seconds",
			"Token queue-wait distribution (power-of-two buckets).", TypeHistogram,
			histogramSamples(m.Pool.QueueWait.Buckets, m.Pool.QueueWait.Count,
				m.Pool.QueueWait.TotalNs, 1e9, nil)...)
	}
	return fams
}

// histogramSamples renders trimmed power-of-two buckets (see Histogram) as
// the cumulative _bucket/_sum/_count series Prometheus expects. Values are
// divided by unit for the exposition (1e9 turns nanoseconds into seconds, 1
// keeps plain counts), and labels lead every sample's label set.
func histogramSamples(buckets []int64, count, sum int64, unit float64, labels []Label) []MetricSample {
	with := func(more ...Label) []Label {
		return append(append(make([]Label, 0, len(labels)+len(more)), labels...), more...)
	}
	out := make([]MetricSample, 0, len(buckets)+3)
	var cum int64
	for i, c := range buckets {
		cum += c
		// Bucket i counts values below 2^i, its upper edge.
		le := math.Pow(2, float64(i)) / unit
		out = append(out, MetricSample{
			Suffix: "_bucket",
			Labels: with(Label{"le", formatFloat(le)}),
			Value:  float64(cum),
		})
	}
	return append(out,
		MetricSample{Suffix: "_bucket", Labels: with(Label{"le", "+Inf"}), Value: float64(count)},
		MetricSample{Suffix: "_sum", Labels: with(), Value: float64(sum) / unit},
		MetricSample{Suffix: "_count", Labels: with(), Value: float64(count)},
	)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WriteExposition renders the families in Prometheus text format 0.0.4.
func WriteExposition(w io.Writer, fams []MetricFamily) error {
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			b.WriteString(f.Name)
			b.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					// %q escapes `"`, `\`, and newlines exactly as the
					// exposition format requires.
					fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
				}
				b.WriteByte('}')
			}
			fmt.Fprintf(&b, " %s\n", formatFloat(s.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a sample value: integers without an exponent, the rest
// in Go's shortest-round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// escapeHelp escapes HELP text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
