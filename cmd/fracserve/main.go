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

// config is what fracserve's flags set: the API's listen address, the
// models to serve and the server's limits.
type config struct {
	addr   string
	models modelList
	server serve.ServerConfig
}

// register binds fracserve's flags on fs to c.
func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8316", "HTTP listen address for the scoring API")
	fs.Var(&c.models, "model", "model to serve, as name=path or path (repeatable)")
	fs.IntVar(&c.server.Batcher.MaxBatch, "max-batch", 64, "rows at which a micro-batch flushes immediately")
	fs.IntVar(&c.server.Batcher.Workers, "serve-workers", 0, "concurrent scoring workers (0 = GOMAXPROCS)")
	fs.IntVar(&c.server.Batcher.QueueDepth, "queue-depth", 1024, "pending requests beyond which /v1/score returns 503")
	fs.IntVar(&c.server.MaxRows, "max-rows", 4096, "rows per score request limit")
	fs.Int64Var(&c.server.MaxBodyBytes, "max-body-bytes", 8<<20, "request body size limit")
	fs.IntVar(&c.server.MaxExplain, "max-explain", 0, "per-request attribution depth limit for the \"explain\" field (0 = default 64)")
	fs.IntVar(&c.server.Drift.Window, "drift-window", 512, "served scores per drift comparison window")
	fs.BoolVar(&c.server.Drift.Disabled, "no-drift", false, "disable model-health drift monitoring")
}

func main() {
	var c config
	c.register(flag.CommandLine)
	c.server.Metrics = &serve.Metrics{}
	front := httpserve.Command{Tool: "fracserve", Metrics: c.server.Metrics.Families}
	front.Parse()
	front.Run("serve", 0, func(ctx context.Context, sess *obs.Session) error {
		return run(ctx, c, sess.Rec)
	})
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

// run loads every model, builds the API server and serves it until ctx is
// canceled, then drains. The front end installs its SIGINT/SIGTERM context
// before run, and run its SIGHUP handler before listening: once the
// listening line is out, a supervisor may signal at any moment, and an
// unhandled SIGTERM (or SIGHUP, whose default action also terminates) would
// kill the daemon without a drain.
func run(ctx context.Context, c config, rec *obs.Recorder) error {
	if len(c.models) == 0 {
		return errors.New("no -model given")
	}
	// Load every model up front; a daemon that cannot serve its models
	// should fail at startup, not at first request.
	handles := make([]*serve.Handle, 0, len(c.models))
	for _, m := range c.models {
		span := rec.Start(obs.PhaseLoad)
		h, err := serve.NewHandle(m.name, m.path)
		span.End()
		if err != nil {
			return err
		}
		rec.Add(obs.CounterBytesDecoded, h.Runtime().Bytes())
		handles = append(handles, h)
	}

	cfg := c.server
	cfg.Recorder = rec
	api, err := serve.NewServer(handles, cfg)
	if err != nil {
		return err
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
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
	// handlers, whose queued submissions the batchers then drain) and close
	// the batchers; the front end then flushes telemetry, so the journal's
	// close event reflects the whole run.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := httpSrv.Shutdown(shutCtx); serr != nil && err == nil {
		err = serr
	}
	api.Close()
	return err
}
