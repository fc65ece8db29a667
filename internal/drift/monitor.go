package drift

import (
	"math"
	"sync"

	"frac/internal/stats"
)

// Config parameterizes a Monitor. The zero value selects defaults tuned so
// a small (dozens-of-samples) reference does not false-alarm on healthy
// traffic while a gross covariate shift still fires within two windows.
type Config struct {
	// WindowSize is the number of served scores per comparison window;
	// <= 0 selects 512. Windows close at batch boundaries, so a closed
	// window holds at least WindowSize samples (at most one batch more).
	WindowSize int

	// Slack, in nats per sample, is subtracted from the martingale's
	// per-window log evidence before it accumulates (a CUSUM reference
	// value). It absorbs the irreducible plug-in gap between a
	// finite-sample reference and genuinely healthy traffic: only drifts
	// whose per-sample KL divergence from the reference exceeds the slack
	// grow the alarm. <= 0 selects 0.15.
	Slack float64

	// LogMAlert is the log martingale wealth at which the state leaves
	// healthy (ln 100 ≈ 4.6 by default — a 100:1 e-value, i.e. sequential
	// significance well past 0.01).
	LogMAlert float64
	// LogMRetrain escalates straight to retrain_recommended (ln 1e6 by
	// default).
	LogMRetrain float64
	// PSIAlert is the debiased-PSI gross-shift trigger; it exists to fire
	// on the *first* drifted window, before the martingale's alternative
	// has adapted. <= 0 selects 2.0 — far above finite-sample noise, far
	// below what a real covariate shift produces.
	PSIAlert float64
	// DriftingWindows is the consecutive-alerting-window count that
	// escalates drifting to retrain_recommended. <= 0 selects 3.
	DriftingWindows int
}

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 512
	}
	if c.Slack <= 0 {
		c.Slack = 0.15
	}
	if c.LogMAlert <= 0 {
		c.LogMAlert = math.Log(100)
	}
	if c.LogMRetrain <= 0 {
		c.LogMRetrain = math.Log(1e6)
	}
	if c.PSIAlert <= 0 {
		c.PSIAlert = 2.0
	}
	if c.DriftingWindows <= 0 {
		c.DriftingWindows = 3
	}
	return c
}

// logMCap (per monitor, 2× the retrain threshold) bounds the accumulated
// log wealth: evidence beyond it changes no decision, but an unbounded
// wealth would take that many nats of counter-evidence to drain, delaying
// recovery after the drift source is fixed. The cap bounds time-to-recover
// at roughly one clean window.

// maxTopTerms bounds the drift-localization report.
const maxTopTerms = 4

// TermShift is one term's drift localization: how far its mean served NS
// contribution moved from the reference, in reference standard deviations.
type TermShift struct {
	Term  int
	Shift float64
}

// WindowStats describes one closed window, as delivered to the OnWindow and
// OnStateChange callbacks. Top aliases monitor-owned storage valid only for
// the duration of the callback.
type WindowStats struct {
	Window  int64 // 1-based index of the closed window
	N       int   // samples in this window
	Mean    float64
	PSI     float64 // debiased population stability index vs the reference
	KS      float64 // Kolmogorov–Smirnov distance at the reference quantiles
	LogM    float64 // martingale log wealth after this window
	Prev    State
	State   State
	Trigger string // statistic that tripped (or last tripped) the alarm
	Top     []TermShift
}

// Snapshot is the monitor's state at a point in time, for /v1/health and
// the metrics exposition. Unlike WindowStats it owns its memory.
type Snapshot struct {
	State          State
	Trigger        string
	LogM           float64
	PSI            float64 // from the last closed window
	KS             float64
	Windows        int64
	Samples        int64
	WindowSize     int
	WindowFill     int     // samples in the currently accumulating window
	Mean, SD       float64 // lifetime served NS moments
	P50, P95, P99  float64 // lifetime served NS quantiles (P² estimates)
	RefMean, RefSD float64
	RefN           int
	Top            []TermShift // from the last closed window
}

// Monitor is the streaming drift state of one mounted model. All methods
// are safe for concurrent use; Record is the hot path and performs zero
// allocations outside window closes.
type Monitor struct {
	cfg Config
	ref *Reference

	mu sync.Mutex

	// Current window.
	winCounts []int64 // histogram bins, reference grid
	winCells  []int64 // quantile cells, reference grid
	winWel    stats.Welford
	winN      int

	// Per-term accumulation for the current window (sized to the
	// reference's term summaries; unused when the reference has none).
	termSum []float64
	termN   int

	// Martingale over the quantile cells: alt is the prequential
	// alternative, updated only at window closes from past windows, so the
	// wealth is a valid e-process under the null.
	alt  []float64
	logM float64

	// Lifetime.
	life    stats.Welford
	p50     *stats.P2Quantile
	p95     *stats.P2Quantile
	p99     *stats.P2Quantile
	samples int64
	windows int64

	// Verdict.
	state   State
	streak  int // consecutive alerting windows
	lastPSI float64
	lastKS  float64
	trigger string
	top     [maxTopTerms]TermShift
	topN    int

	onWindow func(WindowStats)
	onState  func(WindowStats)
}

// NewMonitor builds a monitor comparing served scores against ref.
func NewMonitor(ref *Reference, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:       cfg,
		ref:       ref,
		winCounts: make([]int64, ref.NumBins()),
		winCells:  make([]int64, ref.NumCells()),
		termSum:   make([]float64, ref.NumTerms()),
		alt:       make([]float64, ref.NumCells()),
		p50:       stats.NewP2Quantile(0.50),
		p95:       stats.NewP2Quantile(0.95),
		p99:       stats.NewP2Quantile(0.99),
	}
	for k := range m.alt {
		m.alt[k] = 1 / float64(len(m.alt))
	}
	return m
}

// SetOnWindow installs a callback invoked (under the monitor's lock) after
// every window close. The callback must be fast and must not call back
// into the monitor.
func (m *Monitor) SetOnWindow(fn func(WindowStats)) { m.onWindow = fn }

// SetOnStateChange installs a callback invoked (under the monitor's lock)
// whenever a window close changes the drift state.
func (m *Monitor) SetOnStateChange(fn func(WindowStats)) { m.onState = fn }

// Record folds one scored batch into the monitor: the per-sample totals
// plus (optionally) a collector carrying the batch's per-term sums. NaN
// scores are skipped; infinities clamp to the edge bins. Allocation-free;
// closes a window when enough samples accumulated.
func (m *Monitor) Record(scores []float64, col *Collector) {
	if m == nil || len(scores) == 0 {
		return
	}
	m.mu.Lock()
	for _, s := range scores {
		if math.IsNaN(s) {
			continue
		}
		m.winCounts[m.ref.bin(s)]++
		m.winCells[m.ref.qcell(s)]++
		// The moment and quantile trackers need finite inputs; a +Inf
		// surprisal (an extreme but schema-valid row) is clamped to a
		// value beyond any real NS.
		f := s
		if math.IsInf(f, 1) {
			f = math.MaxFloat64 / 4
		} else if math.IsInf(f, -1) {
			f = -math.MaxFloat64 / 4
		}
		m.winWel.Add(f)
		m.life.Add(f)
		m.p50.Add(f)
		m.p95.Add(f)
		m.p99.Add(f)
		m.winN++
		m.samples++
	}
	if col != nil && col.NumTerms() == len(m.termSum) && col.Rows() > 0 {
		for t, s := range col.sum {
			m.termSum[t] += s
		}
		m.termN += col.rows
	}
	if m.winN >= m.cfg.WindowSize {
		m.closeWindow()
	}
	m.mu.Unlock()
}

// closeWindow computes the window's divergence statistics, advances the
// martingale and the state machine, invokes callbacks, and resets the
// window accumulators. Called with the lock held.
func (m *Monitor) closeWindow() {
	n := m.winN
	m.windows++
	psi := m.debiasedPSI(n)
	ks := m.windowKS(n)

	// Martingale update. The evidence of this window is scored with the
	// alternative as it stood BEFORE the window was observed (prequential
	// plug-in), so under the null the wealth is a supermartingale; the
	// slack and the clamp at zero make it a conservative CUSUM-style
	// e-process that only accumulates persistent divergence.
	cells := float64(len(m.winCells))
	var ev float64
	for k, c := range m.winCells {
		if c > 0 {
			ev += float64(c) * math.Log(m.alt[k]*cells)
		}
	}
	ev -= m.cfg.Slack * float64(n)
	m.logM = math.Min(math.Max(0, m.logM+ev), 2*m.cfg.LogMRetrain)
	// Adapt the alternative toward this window's (Laplace-smoothed)
	// frequencies for the next window.
	for k := range m.alt {
		freq := (float64(m.winCells[k]) + 1) / (float64(n) + cells)
		m.alt[k] = 0.5*m.alt[k] + 0.5*freq
	}

	// Localization: rank terms by standardized mean shift vs the reference.
	m.topN = 0
	if m.termN > 0 && len(m.termSum) == len(m.ref.TermMean) {
		for t, sum := range m.termSum {
			sd := m.ref.TermSD[t]
			if sd < 1e-9 {
				sd = 1e-9
			}
			shift := (sum/float64(m.termN) - m.ref.TermMean[t]) / sd
			m.insertTop(TermShift{Term: t, Shift: shift})
		}
	}

	// Verdict.
	prev := m.state
	alerting := false
	switch {
	case m.logM >= m.cfg.LogMAlert:
		alerting = true
		m.trigger = "martingale"
	case psi >= m.cfg.PSIAlert:
		alerting = true
		m.trigger = "psi"
	}
	quiet := m.logM < m.cfg.LogMAlert/2 && psi < m.cfg.PSIAlert/2
	switch {
	case alerting:
		m.streak++
		if m.streak >= m.cfg.DriftingWindows || m.logM >= m.cfg.LogMRetrain {
			m.state = RetrainRecommended
		} else if m.state != RetrainRecommended {
			m.state = Drifting
		}
	case quiet:
		m.streak = 0
		m.state = Healthy
		if prev == Healthy {
			m.trigger = ""
		}
	default:
		// Hysteresis band: keep the current state, decay the streak.
		if m.streak > 0 {
			m.streak--
		}
	}
	m.lastPSI, m.lastKS = psi, ks

	if m.onWindow != nil || (m.onState != nil && m.state != prev) {
		ws := WindowStats{
			Window:  m.windows,
			N:       n,
			Mean:    m.winWel.Mean(),
			PSI:     psi,
			KS:      ks,
			LogM:    m.logM,
			Prev:    prev,
			State:   m.state,
			Trigger: m.trigger,
			Top:     m.top[:m.topN],
		}
		if m.onWindow != nil {
			m.onWindow(ws)
		}
		if m.onState != nil && m.state != prev {
			m.onState(ws)
		}
	}

	// Reset the window.
	for i := range m.winCounts {
		m.winCounts[i] = 0
	}
	for i := range m.winCells {
		m.winCells[i] = 0
	}
	for i := range m.termSum {
		m.termSum[i] = 0
	}
	m.termN = 0
	m.winN = 0
	m.winWel = stats.Welford{}
}

// insertTop inserts ts into the fixed-size top-|shift| ranking.
func (m *Monitor) insertTop(ts TermShift) {
	a := math.Abs(ts.Shift)
	if m.topN < maxTopTerms {
		m.top[m.topN] = ts
		m.topN++
	} else if math.Abs(m.top[m.topN-1].Shift) >= a {
		return
	} else {
		m.top[m.topN-1] = ts
	}
	for i := m.topN - 1; i > 0 && math.Abs(m.top[i].Shift) > math.Abs(m.top[i-1].Shift); i-- {
		m.top[i], m.top[i-1] = m.top[i-1], m.top[i]
	}
}

// debiasedPSI is the population stability index of the current window vs
// the reference histogram, Laplace-smoothed and reduced by the first-order
// finite-sample null expectation (B−1)·(1/refN + 1/winN) — without the
// correction, a small reference makes PSI read as drift on perfectly
// healthy traffic.
func (m *Monitor) debiasedPSI(n int) float64 {
	bins := len(m.winCounts)
	const alpha = 0.5
	refDen := float64(m.ref.N) + alpha*float64(bins)
	winDen := float64(n) + alpha*float64(bins)
	var psi float64
	for i, c := range m.winCounts {
		p := (m.ref.Counts[i] + alpha) / refDen
		q := (float64(c) + alpha) / winDen
		psi += (q - p) * math.Log(q/p)
	}
	bias := float64(bins-1) * (1/float64(m.ref.N) + 1/float64(n))
	return math.Max(0, psi-bias)
}

// windowKS is the Kolmogorov–Smirnov distance between the window's
// empirical CDF and the reference, evaluated at the reference's quantile
// edges (where the reference CDF is k/K by construction).
func (m *Monitor) windowKS(n int) float64 {
	cells := len(m.winCells)
	if cells < 2 || n == 0 {
		return 0
	}
	var cum int64
	var ks float64
	for k := 0; k < cells-1; k++ {
		cum += m.winCells[k]
		d := math.Abs(float64(cum)/float64(n) - float64(k+1)/float64(cells))
		ks = math.Max(ks, d)
	}
	return ks
}

// State returns the current drift verdict.
func (m *Monitor) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Snapshot captures the monitor's observable state (allocates; intended
// for scrape/health paths, not the scoring hot path).
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		State:      m.state,
		Trigger:    m.trigger,
		LogM:       m.logM,
		PSI:        m.lastPSI,
		KS:         m.lastKS,
		Windows:    m.windows,
		Samples:    m.samples,
		WindowSize: m.cfg.WindowSize,
		WindowFill: m.winN,
		Mean:       m.life.Mean(),
		SD:         m.life.StdDev(),
		P50:        m.p50.Value(),
		P95:        m.p95.Value(),
		P99:        m.p99.Value(),
		RefMean:    m.ref.Mean,
		RefSD:      m.ref.SD,
		RefN:       m.ref.N,
	}
	if m.topN > 0 {
		s.Top = append([]TermShift(nil), m.top[:m.topN]...)
	}
	return s
}
