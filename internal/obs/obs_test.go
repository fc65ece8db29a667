package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderZeroAllocs is the disabled-telemetry contract: every method
// of a nil *Recorder must be a branch and nothing more, so instrumented hot
// paths keep their zero-allocation guarantees with telemetry off.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		span := r.Start(PhaseTrain)
		span.End()
		span = r.StartSampled(PhaseTermScore)
		span.End()
		span = r.StartSampledWorker(PhaseTermScore, 2)
		span.End()
		r.Annotate("cell", "x")
		r.Add(CounterTermsTrained, 1)
		_ = r.Count(CounterTermsTrained)
		r.AddPlanned(10)
		r.PoolCapacity(4)
		r.PoolWaitBegin()
		r.PoolAcquired(0, false)
		r.PoolWaitAbandoned(time.Microsecond)
		r.PoolReleased()
		_, _ = r.PoolGauges()
		r.ObserveHeap(1 << 20)
		r.SetAnalytic(1<<20, 1<<10)
		_ = r.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f times per run, want 0", allocs)
	}
}

// TestEnabledRecorderSteadyStateAllocs: the enabled recorder's record paths
// (spans, counters, pool events) are also allocation-free — only Snapshot
// and the progress loop allocate, and those are off the hot path.
func TestEnabledRecorderSteadyStateAllocs(t *testing.T) {
	r := New()
	allocs := testing.AllocsPerRun(100, func() {
		span := r.Start(PhaseTrain)
		span.End()
		span = r.StartSampled(PhaseTermScore)
		span.End()
		span = r.StartSampledWorker(PhaseTermScore, 2)
		span.End()
		r.Annotate("cell", "x") // no journal attached: must stay free
		r.Add(CounterTermsScored, 1)
		r.PoolWaitBegin()
		r.PoolAcquired(time.Microsecond, true)
		r.PoolReleased()
		r.ObserveHeap(1 << 20)
	})
	if allocs != 0 {
		t.Fatalf("enabled recorder allocated %.1f times per run, want 0", allocs)
	}
}

// TestConcurrentRecorder drives counters, spans, and pool accounting from
// many goroutines (meaningful under -race) and checks the aggregate totals.
func TestConcurrentRecorder(t *testing.T) {
	r := New()
	r.SetSampleEvery(1)
	r.PoolCapacity(8)
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				span := r.StartSampled(PhaseTermTrain)
				r.Add(CounterTermsTrained, 1)
				span.End()
				r.PoolWaitBegin()
				r.PoolAcquired(time.Nanosecond, true)
				r.PoolReleased()
			}
		}()
	}
	wg.Wait()
	const want = goroutines * perG
	if got := r.Count(CounterTermsTrained); got != want {
		t.Errorf("terms trained = %d, want %d", got, want)
	}
	m := r.Snapshot()
	ph, ok := m.Phases[PhaseTermTrain.String()]
	if !ok {
		t.Fatalf("term_train phase missing from snapshot: %v", m.Phases)
	}
	if ph.Count != want {
		t.Errorf("term_train span count = %d, want %d (sampling off)", ph.Count, want)
	}
	if !ph.Sampled {
		t.Errorf("term_train not marked sampled")
	}
	if ph.MinNs < 0 || ph.MaxNs < ph.MinNs || ph.TotalNs < ph.MaxNs {
		t.Errorf("inconsistent span stats: min=%d max=%d total=%d", ph.MinNs, ph.MaxNs, ph.TotalNs)
	}
	if m.Pool == nil {
		t.Fatal("pool metrics missing")
	}
	if m.Pool.Acquires != want || m.Pool.Releases != want || m.Pool.BlockingAcquires != want {
		t.Errorf("pool counters = %+v, want %d acquires/releases/blocked", m.Pool, want)
	}
	if m.Pool.Busy != 0 || m.Pool.Waiting != 0 {
		t.Errorf("pool gauges not quiescent: busy=%d waiting=%d", m.Pool.Busy, m.Pool.Waiting)
	}
	if m.Pool.BusyPeak > 8 {
		t.Errorf("busy peak %d exceeds capacity 8", m.Pool.BusyPeak)
	}
	if m.Pool.QueueWait.Count != want {
		t.Errorf("queue wait count = %d, want %d", m.Pool.QueueWait.Count, want)
	}
}

// TestSampling: with period n, StartSampled records 1/n of the spans while
// counters stay exhaustive.
func TestSampling(t *testing.T) {
	r := New()
	r.SetSampleEvery(8)
	const events = 800
	for i := 0; i < events; i++ {
		span := r.StartSampled(PhaseTermScore)
		r.Add(CounterTermsScored, 1)
		span.End()
	}
	m := r.Snapshot()
	if got := m.Counters[CounterTermsScored.String()]; got != events {
		t.Errorf("counter = %d, want %d", got, events)
	}
	if got := m.Phases[PhaseTermScore.String()].Count; got != events/8 {
		t.Errorf("sampled span count = %d, want %d", got, events/8)
	}
}

// TestPoolCancellationAccounting: an abandoned queued acquire must close the
// waiting gauge and land in the cancelled counter and wait histogram — the
// invariant that keeps gauges leak-free when contexts are cancelled.
func TestPoolCancellationAccounting(t *testing.T) {
	r := New()
	r.PoolCapacity(1)
	r.PoolWaitBegin()
	if _, waiting := r.PoolGauges(); waiting != 1 {
		t.Fatalf("waiting gauge = %d after WaitBegin, want 1", waiting)
	}
	r.PoolWaitAbandoned(3 * time.Microsecond)
	busy, waiting := r.PoolGauges()
	if busy != 0 || waiting != 0 {
		t.Fatalf("gauges after abandon: busy=%d waiting=%d, want 0/0", busy, waiting)
	}
	m := r.Snapshot()
	if m.Pool.CancelledAcquires != 1 {
		t.Errorf("cancelled acquires = %d, want 1", m.Pool.CancelledAcquires)
	}
	if m.Pool.Acquires != 0 {
		t.Errorf("acquires = %d, want 0", m.Pool.Acquires)
	}
	if m.Pool.QueueWait.Count != 1 || m.Pool.QueueWait.TotalNs != 3000 {
		t.Errorf("queue wait = %+v, want count 1 total 3000ns", m.Pool.QueueWait)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	// 10 one-µs waits, 1 one-ms wait: p50 stays in the µs bucket, p99 lands
	// in the ms bucket (bounds are bucket upper edges, i.e. powers of two).
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	h.Observe(1_000_000)
	if p50 := h.quantile(0.50); p50 < 1000 || p50 > 2048 {
		t.Errorf("p50 = %d, want within (1000, 2048]", p50)
	}
	if p99 := h.quantile(0.99); p99 < 1_000_000 || p99 > 1<<20 {
		t.Errorf("p99 = %d, want within (1e6, 2^20]", p99)
	}
	snap := h.snapshot()
	var total int64
	for _, c := range snap {
		total += c
	}
	if total != 11 {
		t.Errorf("snapshot total = %d, want 11", total)
	}
	if len(snap) > histBuckets {
		t.Errorf("snapshot has %d buckets, cap is %d", len(snap), histBuckets)
	}
	var empty Histogram
	if q := empty.quantile(0.99); q != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", q)
	}
	if s := empty.snapshot(); len(s) != 0 {
		t.Errorf("empty histogram snapshot = %v, want empty", s)
	}
}

func TestPhaseStatMinMax(t *testing.T) {
	var st phaseStat
	for _, ns := range []int64{50, 10, 90} {
		st.observe(ns)
	}
	if got := st.min.Load() - 1; got != 10 {
		t.Errorf("min = %d, want 10", got)
	}
	if got := st.max.Load(); got != 90 {
		t.Errorf("max = %d, want 90", got)
	}
	if got := st.ns.Load(); got != 150 {
		t.Errorf("total = %d, want 150", got)
	}
	// A zero-duration span must still register (min stores ns+1 so 0 ≠ unset).
	var zero phaseStat
	zero.observe(0)
	if got := zero.min.Load() - 1; got != 0 {
		t.Errorf("zero-span min = %d, want 0", got)
	}
}

func TestConfigHash(t *testing.T) {
	a := ConfigHash(map[string]string{"scale": "16", "seed": "1"})
	b := FlagConfigHash("seed", "1", "scale", "16") // order-independent
	if a != b {
		t.Errorf("hash depends on pair order: %s vs %s", a, b)
	}
	c := FlagConfigHash("seed", "2", "scale", "16")
	if a == c {
		t.Errorf("hash ignores value change")
	}
	// Key/value boundaries must matter: {"ab":"c"} != {"a":"bc"}.
	if ConfigHash(map[string]string{"ab": "c"}) == ConfigHash(map[string]string{"a": "bc"}) {
		t.Errorf("hash does not separate keys from values")
	}
	if len(a) != 16 {
		t.Errorf("hash length = %d, want 16 hex digits", len(a))
	}
}

// TestConfigHashStability is the manifest identity contract: the hash must
// not depend on map insertion order (Go map iteration is randomized, so an
// unstable hash would differ between identical runs), and changing the seed
// or the variant — and nothing else — must change it.
func TestConfigHashStability(t *testing.T) {
	build := func(pairs [][2]string) map[string]string {
		kv := make(map[string]string, len(pairs))
		for _, p := range pairs {
			kv[p[0]] = p[1]
		}
		return kv
	}
	pairs := [][2]string{
		{"variant", "full"}, {"seed", "1"}, {"workers", "4"},
		{"p", "0.05"}, {"members", "10"}, {"learners", "paper"},
	}
	forward := build(pairs)
	reversed := build(pairs)
	for i, j := 0, len(pairs)-1; i < j; i, j = i+1, j-1 {
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	shuffled := build(pairs)
	base := ConfigHash(forward)
	for trial := 0; trial < 10; trial++ {
		if got := ConfigHash(reversed); got != base {
			t.Fatalf("hash differs for reversed insertion order: %s vs %s", got, base)
		}
		if got := ConfigHash(shuffled); got != base {
			t.Fatalf("hash differs for shuffled insertion order: %s vs %s", got, base)
		}
	}
	seedChanged := build(pairs)
	seedChanged["seed"] = "2"
	if ConfigHash(seedChanged) == base {
		t.Error("changing the seed did not change the hash")
	}
	variantChanged := build(pairs)
	variantChanged["variant"] = "jl"
	if ConfigHash(variantChanged) == base {
		t.Error("changing the variant did not change the hash")
	}
}

func TestBuildInfo(t *testing.T) {
	b := BuildInfo()
	if b.Version == "" || b.Commit == "" {
		t.Errorf("BuildInfo has empty fields: %+v", b)
	}
	if b.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q, want %q", b.GoVersion, runtime.Version())
	}
	if s := b.String(); !strings.Contains(s, b.Version) {
		t.Errorf("String() = %q does not mention version %q", s, b.Version)
	}
}

// TestSnapshotJSON round-trips a populated snapshot through its JSON wire
// form — the run_metrics.json schema readers depend on.
func TestSnapshotJSON(t *testing.T) {
	r := New()
	span := r.Start(PhaseLoad)
	span.End()
	r.Add(CounterBytesDecoded, 4096)
	r.AddPlanned(100)
	r.Add(CounterTermsTrained, 40)
	r.PoolCapacity(4)
	r.PoolAcquired(0, false)
	r.PoolReleased()
	r.SetAnalytic(1<<20, 1<<10)

	m := r.Snapshot()
	m.Manifest = NewManifest("test")
	m.Manifest.Seed = 7
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"manifest", "wall_ns", "phases", "counters", "pool", "memory", "progress"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("run metrics missing %q:\n%s", key, buf.String())
		}
	}
	manifest := decoded["manifest"].(map[string]any)
	for _, key := range []string{"tool", "seed", "build", "gomaxprocs", "num_cpu", "os", "arch", "started_utc"} {
		if _, ok := manifest[key]; !ok {
			t.Errorf("manifest missing %q", key)
		}
	}
	if m.Progress.PlannedTerms != 100 || m.Progress.CompletedTerms != 40 {
		t.Errorf("progress = %+v, want 40/100", m.Progress)
	}
	if m.Memory.AnalyticPeakBytes != 1<<20 {
		t.Errorf("analytic peak = %d, want %d", m.Memory.AnalyticPeakBytes, 1<<20)
	}
	if m.Memory.HeapPeakBytes <= 0 {
		t.Errorf("heap peak not sampled by snapshot: %d", m.Memory.HeapPeakBytes)
	}
	// Phases with no observations stay out of the document.
	if _, ok := m.Phases[PhaseProject.String()]; ok {
		t.Errorf("empty project phase present in snapshot")
	}
}

// TestNilSnapshot: a disabled recorder snapshots to the zero document.
func TestNilSnapshot(t *testing.T) {
	var r *Recorder
	m := r.Snapshot()
	if m.WallNs != 0 || m.Phases != nil || m.Pool != nil {
		t.Errorf("nil snapshot not zero: %+v", m)
	}
}

func TestProgressLine(t *testing.T) {
	r := New()
	r.AddPlanned(100)
	r.Add(CounterTermsTrained, 25)
	r.PoolCapacity(8)
	r.PoolAcquired(0, false)
	line := r.progressLine("frac", 5<<20)
	for _, want := range []string{"frac:", "25/100 terms", "25.0%", "pool 1/8", "heap 5.0MiB"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
	// No planned work: fall back to an elapsed-time line.
	r2 := New()
	if line := r2.progressLine("", 0); !strings.Contains(line, "elapsed") {
		t.Errorf("unplanned progress line %q missing elapsed time", line)
	}
}

func TestStartProgress(t *testing.T) {
	r := New()
	r.AddPlanned(10)
	r.Add(CounterTermsTrained, 10)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := r.StartProgress("t", w, time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "10/10 terms") {
		t.Errorf("progress output %q missing final state", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("progress output does not end with newline: %q", out)
	}
	if r.Snapshot().Memory.HeapPeakBytes <= 0 {
		t.Errorf("progress loop did not sample heap")
	}
	// Disabled recorder: stop is a safe no-op.
	var nilRec *Recorder
	nilRec.StartProgress("t", w, time.Millisecond)()
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KiB",
		5 << 20: "5.0MiB",
		3 << 30: "3.00GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		-time.Second:            "0s",
		250 * time.Microsecond:  "0s", // sub-ms rounds to ms
		1500 * time.Millisecond: "1.5s",
		90 * time.Second:        "1m30s",
	}
	for in, want := range cases {
		got := formatDuration(in)
		if in == 250*time.Microsecond {
			// rounds to 0s at ms resolution
			if got != "0s" {
				t.Errorf("formatDuration(%v) = %q, want 0s", in, got)
			}
			continue
		}
		if got != want {
			t.Errorf("formatDuration(%v) = %q, want %q", in, got, want)
		}
	}
}
