package drift

import (
	"math"
	"math/rand"
	"testing"
)

// testRef builds a reference over n draws of N(mean, sd).
func testRef(t *testing.T, n int, mean, sd float64, term, termSD []float64) *Reference {
	t.Helper()
	r, err := BuildReference(refScores(t, n, 11, mean, sd), term, termSD)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func feed(m *Monitor, rng *rand.Rand, n int, mean, sd float64) {
	buf := make([]float64, 64)
	for sent := 0; sent < n; {
		k := len(buf)
		if n-sent < k {
			k = n - sent
		}
		for i := 0; i < k; i++ {
			buf[i] = mean + sd*rng.NormFloat64()
		}
		m.Record(buf[:k], nil)
		sent += k
	}
}

func TestMonitorStaysHealthyOnCleanTraffic(t *testing.T) {
	// Fresh draws from the reference distribution, 20 windows: the monitor
	// must never leave healthy (the false-positive guard).
	m := NewMonitor(testRef(t, 500, 5, 2, nil, nil), Config{WindowSize: 256})
	rng := rand.New(rand.NewSource(21))
	feed(m, rng, 20*256, 5, 2)
	s := m.Snapshot()
	if s.State != Healthy {
		t.Fatalf("clean traffic drove state to %v (psi=%v logM=%v)", s.State, s.PSI, s.LogM)
	}
	if s.Windows < 19 {
		t.Fatalf("only %d windows closed", s.Windows)
	}
	if s.LogM >= math.Log(100)/2 {
		t.Errorf("martingale wealth %v accumulating on clean traffic", s.LogM)
	}
}

func TestMonitorStaysHealthyOnRepeatedPool(t *testing.T) {
	// CI-style traffic replays a small fixed row pool, so the served
	// empirical distribution has a persistent finite-sample gap from the
	// reference. The slack must absorb it.
	ref := testRef(t, 56, 5, 2, nil, nil)
	m := NewMonitor(ref, Config{WindowSize: 256})
	pool := refScores(t, 56, 99, 5, 2) // same distribution, different draw
	rng := rand.New(rand.NewSource(5))
	buf := make([]float64, 64)
	for w := 0; w < 12*256/64; w++ {
		for i := range buf {
			buf[i] = pool[rng.Intn(len(pool))]
		}
		m.Record(buf, nil)
	}
	if s := m.Snapshot(); s.State != Healthy {
		t.Fatalf("repeated-pool traffic drove state to %v (psi=%v logM=%v)", s.State, s.PSI, s.LogM)
	}
}

func TestMonitorDetectsShiftAndRecovers(t *testing.T) {
	m := NewMonitor(testRef(t, 500, 5, 2, nil, nil), Config{WindowSize: 256})
	rng := rand.New(rand.NewSource(31))

	var transitions []State
	m.SetOnStateChange(func(ws WindowStats) { transitions = append(transitions, ws.State) })

	feed(m, rng, 2*256, 5, 2)
	if s := m.State(); s != Healthy {
		t.Fatalf("healthy preamble left state %v", s)
	}

	// Gross mean shift (+3 SD): PSI fires on the first drifted window;
	// within a few more the martingale escalates to retrain_recommended.
	feed(m, rng, 256, 11, 2)
	s := m.Snapshot()
	if s.State == Healthy {
		t.Fatalf("first shifted window not detected (psi=%v logM=%v)", s.PSI, s.LogM)
	}
	if s.Trigger == "" {
		t.Error("alarm fired without a trigger")
	}
	feed(m, rng, 4*256, 11, 2)
	if s := m.Snapshot(); s.State != RetrainRecommended {
		t.Fatalf("sustained shift reached %v, want retrain_recommended (psi=%v logM=%v)", s.State, s.PSI, s.LogM)
	}

	// Back to clean traffic: the CUSUM clamp lets the wealth drain fast.
	feed(m, rng, 3*256, 5, 2)
	if s := m.Snapshot(); s.State != Healthy {
		t.Fatalf("recovery failed: %v (psi=%v logM=%v)", s.State, s.PSI, s.LogM)
	}

	if len(transitions) < 2 {
		t.Fatalf("expected alarm + recovery transitions, got %v", transitions)
	}
	if last := transitions[len(transitions)-1]; last != Healthy {
		t.Errorf("final transition %v, want healthy", last)
	}
	if got := State(99).String(); got != "state(99)" {
		t.Errorf("State(99).String() = %q", got)
	}
}

func TestMonitorLocalizesDriftedTerm(t *testing.T) {
	termMean := []float64{1, 2, 3}
	termSD := []float64{0.5, 0.5, 0.5}
	m := NewMonitor(testRef(t, 200, 6, 1, termMean, termSD), Config{WindowSize: 100})

	col := NewCollector()
	col.Reset(3)
	rows := make([]float64, 100)
	contrib := make([]float64, 100)
	for i := range rows {
		rows[i] = 6
	}
	for ti, mean := range []float64{1, 2, 8} { // term 2 shifted +5 → +10 SDs
		for i := range contrib {
			contrib[i] = mean
		}
		col.ObserveTerm(ti, contrib)
	}
	m.Record(rows, col)

	s := m.Snapshot()
	if len(s.Top) == 0 {
		t.Fatal("no top terms after window close")
	}
	if s.Top[0].Term != 2 {
		t.Fatalf("top drifted term %d (shift %v), want 2", s.Top[0].Term, s.Top[0].Shift)
	}
	if got := s.Top[0].Shift; math.Abs(got-10) > 0.1 {
		t.Errorf("term 2 shift %v, want ~10 SDs", got)
	}
	// The unshifted terms rank below.
	for _, ts := range s.Top[1:] {
		if math.Abs(ts.Shift) > math.Abs(s.Top[0].Shift) {
			t.Errorf("top terms not ranked: %+v", s.Top)
		}
	}
}

func TestMonitorIgnoresMismatchedCollector(t *testing.T) {
	m := NewMonitor(testRef(t, 200, 6, 1, []float64{1, 2, 3}, []float64{1, 1, 1}), Config{WindowSize: 100})
	col := NewCollector()
	col.Reset(5) // wrong term count (e.g. raced with a hot reload)
	contrib := make([]float64, 100)
	for ti := 0; ti < 5; ti++ {
		col.ObserveTerm(ti, contrib)
	}
	rows := make([]float64, 100)
	for i := range rows {
		rows[i] = 6
	}
	m.Record(rows, col)
	if s := m.Snapshot(); len(s.Top) != 0 {
		t.Fatalf("mismatched collector produced top terms: %+v", s.Top)
	}
}

func TestMonitorSkipsNaNAndClampsInf(t *testing.T) {
	m := NewMonitor(testRef(t, 100, 0, 1, nil, nil), Config{WindowSize: 8})
	m.Record([]float64{math.NaN(), math.NaN(), 0.5}, nil)
	s := m.Snapshot()
	if s.Samples != 1 {
		t.Fatalf("NaN scores counted: samples=%d", s.Samples)
	}
	m.Record([]float64{math.Inf(1), math.Inf(-1), 0, 0, 0, 0, 0}, nil)
	s = m.Snapshot()
	if s.Windows != 1 {
		t.Fatalf("window did not close: %d", s.Windows)
	}
	if math.IsNaN(s.Mean) || math.IsInf(s.Mean, 0) {
		t.Fatalf("lifetime mean poisoned: %v", s.Mean)
	}
	if math.IsNaN(s.P99) || math.IsInf(s.P99, 0) {
		t.Fatalf("lifetime p99 poisoned: %v", s.P99)
	}
}

func TestMonitorOnWindowCallback(t *testing.T) {
	m := NewMonitor(testRef(t, 200, 5, 2, nil, nil), Config{WindowSize: 64})
	var windows []WindowStats
	m.SetOnWindow(func(ws WindowStats) { windows = append(windows, ws) })
	feed(m, rand.New(rand.NewSource(9)), 3*64, 5, 2)
	if len(windows) != 3 {
		t.Fatalf("%d window callbacks, want 3", len(windows))
	}
	for i, ws := range windows {
		if ws.Window != int64(i+1) {
			t.Errorf("window %d numbered %d", i, ws.Window)
		}
		if ws.N < 64 {
			t.Errorf("window %d closed with %d samples", i, ws.N)
		}
	}
}

func TestMonitorRecordZeroAlloc(t *testing.T) {
	// WindowSize far above the samples fed, so no window closes (the close
	// path runs once per window and invokes callbacks; the per-sample path
	// is the zero-alloc contract).
	m := NewMonitor(testRef(t, 500, 5, 2, []float64{1, 2, 3}, []float64{1, 1, 1}), Config{WindowSize: 1 << 30})
	scores := refScores(t, 64, 77, 5, 2)
	col := NewCollector()
	contrib := make([]float64, 64)
	if avg := testing.AllocsPerRun(100, func() {
		col.Reset(3)
		for ti := 0; ti < 3; ti++ {
			col.ObserveTerm(ti, contrib)
		}
		m.Record(scores, col)
	}); avg != 0 {
		t.Fatalf("Record path allocates %v per batch, want 0", avg)
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.Record([]float64{1, 2, 3}, nil) // must not panic
}

func BenchmarkMonitorRecord(b *testing.B) {
	scores := make([]float64, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range scores {
		scores[i] = 5 + 2*rng.NormFloat64()
	}
	ref, err := BuildReference(scores[:32:32], nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMonitor(ref, Config{WindowSize: 1 << 30})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Record(scores, nil)
	}
}
