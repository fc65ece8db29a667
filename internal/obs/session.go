package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"
)

// DefaultTermSample is the default per-term span sampling period (1 in 8),
// overridable with -obs-term-sample.
const DefaultTermSample = 8

// CLIFlags is the telemetry flag bundle shared by the frac, fracbench,
// fracgen and fracserve commands, so every binary exposes the same
// observability surface. The commands' shared front end (httpserve.Command)
// registers it and leaves it out of the config hash.
type CLIFlags struct {
	Version        bool
	Progress       bool
	MetricsOut     string
	JournalOut     string
	TraceEventsOut string
	DebugAddr      string
	TermSample     int
	PprofCPU       string
	PprofHeap      string
	Trace          string
}

// Register installs the flags on fs.
func (f *CLIFlags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Version, "version", false, "print version/build info and exit")
	fs.BoolVar(&f.Progress, "progress", false, "emit a live progress/ETA line to stderr")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write run metrics + manifest JSON to this file (e.g. run_metrics.json)")
	fs.StringVar(&f.JournalOut, "journal-out", "", "stream a JSONL event journal of the run to this file (e.g. journal.jsonl)")
	fs.StringVar(&f.TraceEventsOut, "trace-events-out", "", "write recorded spans as a Perfetto-viewable Chrome trace-event file (e.g. trace.json)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve /metrics, /healthz, /progress, and /debug/pprof on this address (e.g. localhost:6060)")
	fs.IntVar(&f.TermSample, "obs-term-sample", DefaultTermSample, "record 1 in N per-term spans (1 = every term)")
	fs.StringVar(&f.PprofCPU, "pprof-cpu", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.PprofHeap, "pprof-heap", "", "write a heap profile at run end to this file")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace of the run to this file")
}

// Enabled reports whether any flag requests telemetry collection.
func (f *CLIFlags) Enabled() bool {
	return f.Progress || f.MetricsOut != "" || f.JournalOut != "" ||
		f.TraceEventsOut != "" || f.DebugAddr != ""
}

// Session is the run-scoped telemetry lifecycle of one CLI invocation: it
// owns the recorder (nil when telemetry is off), the run manifest, the
// progress loop, the event journal, and any requested profiles, and writes
// the metrics/journal/trace files at Close. Profiling flags work with or
// without metrics collection.
type Session struct {
	// Rec is nil when no telemetry flag was given; passing it through
	// Config.Obs is then free.
	Rec *Recorder
	// Manifest is pre-filled with environment fields; the command fills
	// Variant/Seed/ConfigHash/Dataset before Close.
	Manifest *Manifest

	tool         string
	flags        CLIFlags
	journal      *Journal
	stopProgress func()
	cpuFile      *os.File
	traceFile    *os.File
}

// Start begins a telemetry session for the given tool name. It prints
// version info and returns (nil, nil) when -version was requested — the
// caller should exit successfully on a nil session. Profiles start
// immediately so they bracket the whole run.
func (f *CLIFlags) Start(tool string, progressOut io.Writer) (*Session, error) {
	if f.Version {
		fmt.Printf("%s version %s\n", tool, BuildInfo())
		return nil, nil
	}
	s := &Session{tool: tool, flags: *f, Manifest: NewManifest(tool), stopProgress: func() {}}
	if f.Enabled() {
		s.Rec = New()
		s.Rec.SetSampleEvery(f.TermSample)
		s.Manifest.TermSampleEvery = s.Rec.SampleEvery()
	}
	if f.TraceEventsOut != "" {
		s.Rec.EnableSpanLog(0)
	}
	if f.JournalOut != "" {
		j, err := OpenJournal(f.JournalOut, s.Rec, tool, 0)
		if err != nil {
			return nil, fmt.Errorf("-journal-out: %w", err)
		}
		s.journal = j
	}
	if f.PprofCPU != "" {
		cf, err := os.Create(f.PprofCPU)
		if err != nil {
			s.abortSinks()
			return nil, fmt.Errorf("-pprof-cpu: %w", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			s.abortSinks()
			return nil, fmt.Errorf("-pprof-cpu: %w", err)
		}
		s.cpuFile = cf
	}
	if f.Trace != "" {
		tf, err := os.Create(f.Trace)
		if err != nil {
			s.abortSinks()
			return nil, fmt.Errorf("-trace: %w", err)
		}
		if err := trace.Start(tf); err != nil {
			tf.Close()
			s.abortSinks()
			return nil, fmt.Errorf("-trace: %w", err)
		}
		s.traceFile = tf
	}
	if f.Progress {
		if progressOut == nil {
			progressOut = os.Stderr
		}
		s.stopProgress = s.Rec.StartProgress(tool, progressOut, 500*time.Millisecond)
	}
	return s, nil
}

// abortSinks unwinds partially started profiles and the journal on a Start
// error.
func (s *Session) abortSinks() {
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		s.cpuFile.Close()
		s.cpuFile = nil
	}
	if s.journal != nil {
		s.journal.Close(false, Metrics{})
		s.journal = nil
	}
}

// Close finalizes the session: it stops the progress loop (flushing a final
// progress line, so an interrupted run never leaves a partial line on the
// terminal), stops and flushes profiles, writes the heap profile if
// requested, exports trace events, and writes the metrics document and
// journal close event. runErr is the run's outcome: when it is a context
// cancellation, the metrics document and journal are still written, flagged
// "cancelled": true, so an interrupted run leaves a valid partial account
// instead of nothing. Safe on a nil session (the -version path). Errors are
// joined so a failing metrics write cannot hide a failing profile flush.
func (s *Session) Close(runErr error) error {
	if s == nil {
		return nil
	}
	cancelled := errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)
	s.stopProgress()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
		s.cpuFile = nil
	}
	if s.traceFile != nil {
		trace.Stop()
		keep(s.traceFile.Close())
		s.traceFile = nil
	}
	if s.flags.PprofHeap != "" {
		keep(writeHeapProfile(s.flags.PprofHeap))
	}
	if s.flags.TraceEventsOut != "" && s.Rec != nil {
		keep(s.Rec.WriteTraceFile(s.flags.TraceEventsOut, s.tool))
	}
	var final Metrics
	if s.Rec != nil && (s.journal != nil || s.flags.MetricsOut != "") {
		final = s.Rec.Snapshot()
		final.Manifest = s.Manifest
		final.Cancelled = cancelled
	}
	if s.journal != nil {
		keep(s.journal.Close(cancelled, final))
		s.journal = nil
	}
	if s.flags.MetricsOut != "" && s.Rec != nil {
		keep(final.WriteFile(s.flags.MetricsOut))
	}
	return firstErr
}

// writeHeapProfile captures an up-to-date heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-pprof-heap: %w", err)
	}
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("-pprof-heap: %w", err)
	}
	return f.Close()
}
