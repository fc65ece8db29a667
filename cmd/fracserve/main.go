// Command fracserve is the online scoring daemon: it loads models persisted
// with frac -save-model and serves them over an HTTP/JSON API, coalescing
// concurrent requests through a micro-batching queue onto the zero-alloc
// batch scoring path.
//
//	fracserve -model m.frac                          # serve one model
//	fracserve -model tissue=a.frac -model b=b.frac   # serve several by name
//
// API (see DESIGN.md §13):
//
//	POST /v1/score   {"model":"m","rows":[[...]]} → per-row normalized surprisal
//	GET  /v1/models  loaded models, content hashes, schemas
//	POST /v1/reload  hot-reload from disk (also SIGHUP); in-flight batches
//	                 finish on the model they started with
//	GET  /v1/health  per-model drift verdict (healthy/drifting/retrain_recommended)
//	GET  /healthz    liveness
//
// Models saved with a drift reference (frac -save-model) are monitored
// automatically: the daemon sketches the served NS stream in rolling windows
// of -drift-window scores, compares each window against the reference, and
// surfaces the verdict on /v1/health, as frac_serve_drift_* metrics, and as
// drift/drift_alarm journal annotations. -no-drift turns monitoring off.
//
// The usual telemetry flags apply; -debug-addr exposes frac_serve_* request,
// latency, batch-occupancy, and drift metrics next to the run metrics, and
// the journal records every load/reload with the model's content hash.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"frac/internal/obs"
	"frac/internal/obs/httpserve"
	"frac/internal/serve"
)

// modelArg is one -model flag: "name=path" or bare "path" (name defaults to
// the file's base name without extension).
type modelArg struct{ name, path string }

type modelList []modelArg

func (m *modelList) String() string {
	parts := make([]string, len(*m))
	for i, a := range *m {
		parts[i] = a.name + "=" + a.path
	}
	return strings.Join(parts, ",")
}

func (m *modelList) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		path = v
		name = strings.TrimSuffix(filepath.Base(v), filepath.Ext(v))
	}
	if name == "" || path == "" {
		return fmt.Errorf("-model %q: want name=path or path", v)
	}
	*m = append(*m, modelArg{name: name, path: path})
	return nil
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8316", "HTTP listen address for the scoring API")
		maxBatch   = flag.Int("max-batch", 64, "rows at which a micro-batch flushes immediately")
		workers    = flag.Int("serve-workers", 0, "concurrent scoring workers (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 1024, "pending requests beyond which /v1/score returns 503")
		maxRows    = flag.Int("max-rows", 4096, "rows per score request limit")
		maxBody    = flag.Int64("max-body-bytes", 8<<20, "request body size limit")
		maxExplain = flag.Int("max-explain", 0, "per-request attribution depth limit for the \"explain\" field (0 = default 64)")
		driftWin   = flag.Int("drift-window", 512, "served scores per drift comparison window")
		noDrift    = flag.Bool("no-drift", false, "disable model-health drift monitoring")
		models     modelList
		tele       obs.CLIFlags
	)
	flag.Var(&models, "model", "model to serve, as name=path or path (repeatable)")
	tele.Register(flag.CommandLine)
	flag.Parse()

	if err := run(*addr, models, serve.ServerConfig{
		MaxRows:      *maxRows,
		MaxBodyBytes: *maxBody,
		MaxExplain:   *maxExplain,
		Batcher: serve.BatcherConfig{
			MaxBatch:   *maxBatch,
			Workers:    *workers,
			QueueDepth: *queueDepth,
		},
		Drift: serve.DriftConfig{
			Disabled: *noDrift,
			Window:   *driftWin,
		},
	}, tele); err != nil {
		fmt.Fprintf(os.Stderr, "fracserve: %v\n", err)
		os.Exit(1)
	}
}

// Connection limits of the scoring API. A client has readHeaderTimeout to
// send its headers and readTimeout for the whole request; an idle
// keep-alive connection closes after idleTimeout. There is no write
// timeout: a 4096-row explained request on a wide model can take seconds
// to score.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 120 * time.Second
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer wraps the scoring API in an http.Server with the limits
// above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout, // zero would fall back to readTimeout
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func run(addr string, models modelList, cfg serve.ServerConfig, tele obs.CLIFlags) error {
	if len(models) == 0 {
		return errors.New("no -model given")
	}
	sess, err := tele.Start("fracserve", os.Stderr)
	if err != nil {
		return err
	}
	if sess == nil { // -version
		return nil
	}
	if sess.Manifest != nil {
		sess.Manifest.Variant = "serve"
		sess.Manifest.ConfigHash = obs.FlagConfigHash(
			"addr", addr,
			"models", models.String(),
			"max-batch", strconv.Itoa(cfg.Batcher.MaxBatch),
			"serve-workers", strconv.Itoa(cfg.Batcher.Workers),
			"queue-depth", strconv.Itoa(cfg.Batcher.QueueDepth),
			"max-rows", strconv.Itoa(cfg.MaxRows),
			"max-explain", strconv.Itoa(cfg.MaxExplain),
			"drift-window", strconv.Itoa(cfg.Drift.Window),
			"no-drift", strconv.FormatBool(cfg.Drift.Disabled),
		)
	}

	// Load every model up front; a daemon that cannot serve its models
	// should fail at startup, not at first request.
	handles := make([]*serve.Handle, 0, len(models))
	for _, m := range models {
		span := sess.Rec.Start(obs.PhaseLoad)
		h, err := serve.NewHandle(m.name, m.path)
		span.End()
		if err != nil {
			return fmt.Errorf("closing telemetry after load failure: %w", errors.Join(err, sess.Close(err)))
		}
		sess.Rec.Add(obs.CounterBytesDecoded, h.Runtime().Bytes())
		handles = append(handles, h)
	}

	cfg.Metrics = &serve.Metrics{}
	cfg.Recorder = sess.Rec
	api, err := serve.NewServer(handles, cfg)
	if err != nil {
		return errors.Join(err, sess.Close(err))
	}

	dbg, err := httpserve.Start(tele.DebugAddr, httpserve.Options{
		Recorder: sess.Rec,
		Manifest: sess.Manifest,
		Extra:    cfg.Metrics.Families,
	})
	if err != nil {
		return errors.Join(err, sess.Close(err))
	}

	// Register every signal before listening: once the listening line is
	// out, a supervisor may signal at any moment, and an unhandled SIGTERM
	// (or SIGHUP, whose default action also terminates) would kill the
	// daemon without a drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return errors.Join(err, sess.Close(err))
	}
	for _, h := range handles {
		rt := h.Runtime()
		drift := "drift=unmonitored"
		if h.Monitor() != nil {
			drift = fmt.Sprintf("drift=monitored(window=%d,ref=%d)",
				cfg.Drift.Window, rt.DriftReference().N)
		}
		fmt.Printf("fracserve: model %s hash=%s terms=%d features=%d %s (%s)\n",
			h.Name(), rt.Hash(), rt.NumTerms(), len(rt.Schema()), drift, rt.Path())
	}
	fmt.Printf("fracserve: listening on http://%s\n", ln.Addr())

	httpSrv := newHTTPServer(api)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// SIGHUP hot-reloads every model; POST /v1/reload does the same per
	// model. Reloads are atomic swaps — scoring never pauses.
	go func() {
		for range hup {
			for _, name := range api.Names() {
				res := api.ReloadHandle(name)
				if res.Error != "" {
					fmt.Fprintf(os.Stderr, "fracserve: reload %s: %s (previous model still serving)\n",
						name, res.Error)
					continue
				}
				fmt.Printf("fracserve: reloaded %s hash=%s changed=%v\n",
					res.Model, res.ModelHash, res.Changed)
			}
		}
	}()

	select {
	case <-ctx.Done():
		err = nil // orderly shutdown on signal
	case err = <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
	}

	// Shutdown order matters: stop intake first (Shutdown waits for in-flight
	// handlers, whose queued submissions the batchers then drain), close the
	// batchers, then flush telemetry so the journal's close event reflects
	// the whole run.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := httpSrv.Shutdown(shutCtx); serr != nil && err == nil {
		err = serr
	}
	api.Close()
	if serr := dbg.Close(); serr != nil && err == nil {
		err = serr
	}
	if serr := sess.Close(err); serr != nil && err == nil {
		err = serr
	}
	return err
}
