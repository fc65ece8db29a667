// Package httpserve is the live debug HTTP surface of a running FRaC
// command, enabled with -debug-addr on all four CLIs (frac, fracbench,
// fracgen, fracserve):
//
//	/metrics      Prometheus/OpenMetrics text exposition of every recorder
//	              counter, gauge, phase-span statistic, and the pool
//	              queue-wait histogram (scrapeable while the run is in flight)
//	/healthz      liveness probe ("ok")
//	/progress     live progress JSON: done/planned terms, rate, ETA, the
//	              recorder's pool occupancy gauges, heap
//	/debug/pprof  the stdlib profiling mux (heap, goroutine, profile, trace…)
//
// The server only reads the recorder's atomics through Snapshot, so scraping
// is race-free against a live run and cannot change scores. Command, the
// front end those four CLIs share, starts and closes it.
package httpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"frac/internal/obs"
)

// Server is a running debug server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Options customizes the handler.
type Options struct {
	// Recorder supplies the metrics; nil serves empty expositions.
	Recorder *obs.Recorder
	// Manifest, when non-nil, is exposed as frac_build_info and echoed by
	// /progress.
	Manifest *obs.Manifest
	// Extra, when non-nil, supplies additional metric families appended to
	// the /metrics exposition after the recorder's (e.g. the serving daemon's
	// frac_serve_* registry). Called once per scrape.
	Extra func() []obs.MetricFamily
}

// Start listens on addr and serves the debug mux in the background. An empty
// addr is the disabled state: Start returns (nil, nil) and every method of
// the nil *Server is a no-op, so callers can wire the flag through
// unconditionally.
func Start(addr string, opts Options) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(opts)}}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return s, nil
}

// Addr reports the bound listen address ("" on a nil server), which differs
// from the requested one when the caller asked for port 0.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close gracefully shuts the server down, waiting briefly for in-flight
// scrapes. Nil-safe.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// Handler builds the debug mux (exported so tests can drive it without a
// listener).
func Handler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "frac debug server\n\n/metrics\n/healthz\n/progress\n/debug/pprof/\n")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		m := opts.Recorder.Snapshot()
		m.Manifest = opts.Manifest
		fams := m.Families()
		if opts.Extra != nil {
			fams = append(fams, opts.Extra()...)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteExposition(w, fams); err != nil {
			// Connection-level failure; nothing sensible left to send.
			return
		}
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		blob, err := json.MarshalIndent(progressDoc(opts), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(blob, '\n'))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Progress is the /progress JSON document.
type Progress struct {
	Tool           string  `json:"tool,omitempty"`
	Variant        string  `json:"variant,omitempty"`
	WallSeconds    float64 `json:"wall_seconds"`
	PlannedTerms   int64   `json:"planned_terms"`
	CompletedTerms int64   `json:"completed_terms"`
	Percent        float64 `json:"percent,omitempty"`
	TermsPerSec    float64 `json:"terms_per_sec,omitempty"`
	EtaSeconds     float64 `json:"eta_seconds,omitempty"`

	PoolCapacity int64 `json:"pool_capacity,omitempty"`
	PoolBusy     int64 `json:"pool_busy,omitempty"`
	PoolWaiting  int64 `json:"pool_waiting,omitempty"`

	HeapBytes         int64 `json:"heap_bytes"`
	AnalyticPeakBytes int64 `json:"analytic_peak_bytes,omitempty"`
}

func progressDoc(opts Options) Progress {
	m := opts.Recorder.Snapshot()
	p := Progress{
		WallSeconds:       float64(m.WallNs) / 1e9,
		PlannedTerms:      m.Progress.PlannedTerms,
		CompletedTerms:    m.Progress.CompletedTerms,
		HeapBytes:         m.Memory.HeapPeakBytes,
		AnalyticPeakBytes: m.Memory.AnalyticPeakBytes,
	}
	if opts.Manifest != nil {
		p.Tool = opts.Manifest.Tool
		p.Variant = opts.Manifest.Variant
	}
	if p.PlannedTerms > 0 {
		p.Percent = 100 * float64(p.CompletedTerms) / float64(p.PlannedTerms)
	}
	if secs := p.WallSeconds; secs > 0 && p.CompletedTerms > 0 {
		p.TermsPerSec = float64(p.CompletedTerms) / secs
		if remaining := p.PlannedTerms - p.CompletedTerms; remaining > 0 {
			p.EtaSeconds = float64(remaining) / p.TermsPerSec
		}
	}
	if m.Pool != nil {
		p.PoolCapacity = m.Pool.Capacity
		p.PoolBusy = m.Pool.Busy
		p.PoolWaiting = m.Pool.Waiting
	}
	return p
}
