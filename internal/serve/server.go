package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/drift"
	"frac/internal/linalg"
	"frac/internal/obs"
)

// The HTTP/JSON API:
//
//	POST /v1/score   {"model":"name","rows":[[...]]} → {"model","model_hash","scores":[...]}
//	GET  /v1/models  loaded models with identity + schema
//	POST /v1/reload  hot-reload one model (?model=name) or all
//	GET  /v1/health  per-model drift verdict (healthy/drifting/retrain_recommended)
//	GET  /healthz    liveness probe
//
// Rows carry one JSON number per schema feature, with missing values as
// null (JSON has no NaN). Every score response is stamped with the content
// hash of the exact runtime that scored it, which is what the reload soak
// test asserts on: a hash either matches a fully loaded model or the
// response is torn.

// ServerConfig parameterizes the API server.
type ServerConfig struct {
	// MaxRows bounds rows per score request; <= 0 selects 4096.
	MaxRows int
	// MaxBodyBytes bounds the request body; <= 0 selects 8 MiB.
	MaxBodyBytes int64
	// MaxExplain bounds the per-request attribution depth ("explain" field);
	// <= 0 selects 64. Depth is also clamped to the model's feature count,
	// so the bound only caps response size, never correctness.
	MaxExplain int
	// Batcher configures the per-model micro-batching queue.
	Batcher BatcherConfig
	// Metrics, when non-nil, receives request accounting and is also wired
	// into the batchers.
	Metrics *Metrics
	// Recorder, when non-nil, receives journal annotations for model
	// load/reload events and drift window/alarm transitions. Nil-safe
	// (obs idiom).
	Recorder *obs.Recorder
	// Drift configures model-health monitoring.
	Drift DriftConfig
}

// DriftConfig controls the per-model drift monitors.
type DriftConfig struct {
	// Disabled turns drift monitoring off even for models that carry a
	// reference.
	Disabled bool
	// Window is the drift comparison window size in served scores;
	// <= 0 selects the drift package default (512).
	Window int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxRows <= 0 {
		c.MaxRows = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxExplain <= 0 {
		c.MaxExplain = 64
	}
	return c
}

// Server is the scoring API over a set of model handles. It implements
// http.Handler; attach it to any listener (fracserve uses http.Server,
// tests use httptest).
type Server struct {
	cfg     ServerConfig
	names   []string
	handles map[string]*Handle
	mux     *http.ServeMux
}

// NewServer attaches a micro-batcher to every handle and builds the API
// handler. Handles must have unique names; with exactly one handle, score
// requests may omit the model name.
func NewServer(handles []*Handle, cfg ServerConfig) (*Server, error) {
	if len(handles) == 0 {
		return nil, errors.New("serve: no models to serve")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, handles: make(map[string]*Handle, len(handles))}
	for _, h := range handles {
		if _, dup := s.handles[h.name]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q", h.name)
		}
		s.handles[h.name] = h
		s.names = append(s.names, h.name)
		bcfg := cfg.Batcher
		bcfg.Metrics = cfg.Metrics.ForModel(h.name)
		h.batcher = NewBatcher(h, bcfg)
		s.attachMonitor(h)
		if mm := bcfg.Metrics; mm != nil {
			handle := h
			mm.Drift = func() *drift.Snapshot {
				if mon := handle.Monitor(); mon != nil {
					snap := mon.Snapshot()
					return &snap
				}
				return nil
			}
		}
		cfg.Recorder.Annotate("serve_load",
			fmt.Sprintf("%s hash=%s terms=%d drift_monitor=%v",
				h.name, h.Runtime().Hash(), h.Runtime().NumTerms(), h.Monitor() != nil))
	}
	sort.Strings(s.names)
	if m := cfg.Metrics; m != nil {
		m.QueueDepth = func() int {
			d := 0
			for _, h := range handles {
				d += h.batcher.Depth()
			}
			return d
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument(epHealthz, s.handleHealthz))
	mux.HandleFunc("/v1/models", s.instrument(epModels, s.handleModels))
	mux.HandleFunc("/v1/score", s.instrument(epScore, s.handleScore))
	mux.HandleFunc("/v1/reload", s.instrument(epReload, s.handleReload))
	mux.HandleFunc("/v1/health", s.instrument(epHealth, s.handleHealth))
	s.mux = mux
	return s, nil
}

// attachMonitor builds (or clears) a handle's drift monitor from its current
// runtime's persisted reference and wires window closes and alarm
// transitions into the journal. Called at startup and after every reload
// that swapped the runtime.
func (s *Server) attachMonitor(h *Handle) {
	if s.cfg.Drift.Disabled {
		h.SetMonitor(nil)
		return
	}
	rt := h.Runtime()
	ref := rt.DriftReference()
	if ref == nil {
		h.SetMonitor(nil)
		return
	}
	mon := drift.NewMonitor(ref, drift.Config{WindowSize: s.cfg.Drift.Window})
	name := h.Name()
	mon.SetOnWindow(func(ws drift.WindowStats) {
		s.cfg.Recorder.Annotate("drift", fmt.Sprintf(
			"model=%s window=%d n=%d mean=%.4f psi=%.4f ks=%.4f logm=%.3f state=%s",
			name, ws.Window, ws.N, ws.Mean, ws.PSI, ws.KS, ws.LogM, ws.State))
	})
	mon.SetOnStateChange(func(ws drift.WindowStats) {
		top := ""
		for i, ts := range ws.Top {
			if i > 0 {
				top += ","
			}
			top += fmt.Sprintf("%s:%+.2f", rt.TermFeature(ts.Term), ts.Shift)
		}
		s.cfg.Recorder.Annotate("drift_alarm", fmt.Sprintf(
			"model=%s window=%d from=%s to=%s trigger=%s psi=%.4f logm=%.3f top=[%s]",
			name, ws.Window, ws.Prev, ws.State, ws.Trigger, ws.PSI, ws.LogM, top))
	})
	h.SetMonitor(mon)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handle returns the named handle (nil if unknown) — used by fracserve's
// SIGHUP reload path.
func (s *Server) Handle(name string) *Handle { return s.handles[name] }

// Names returns the sorted model names.
func (s *Server) Names() []string { return s.names }

// Close drains and stops every batcher. Call after the HTTP listener has
// stopped accepting requests: accepted score submissions finish scoring,
// later ones get 503.
func (s *Server) Close() {
	for _, h := range s.handles {
		h.batcher.Close()
	}
}

// statusWriter captures the response status for request accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with latency/status accounting.
func (s *Server) instrument(ep endpoint, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		fn(sw, r)
		s.cfg.Metrics.observeRequest(ep, sw.status, time.Since(start).Nanoseconds())
	}
}

// apiError is a client-visible failure with an HTTP status.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	blob, err := json.Marshal(doc)
	if err != nil {
		// The handlers only pass finite, marshalable documents; nothing
		// sensible is left to send if this ever trips.
		return
	}
	w.Write(append(blob, '\n'))
}

func writeErr(w http.ResponseWriter, err error) {
	var api *apiError
	if !errors.As(err, &api) {
		api = errf(http.StatusInternalServerError, "%s", err)
	}
	writeJSON(w, api.status, map[string]string{"error": api.msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ModelInfo is one /v1/models entry.
type ModelInfo struct {
	Name      string        `json:"name"`
	ModelHash string        `json:"model_hash"`
	Path      string        `json:"path"`
	Terms     int           `json:"terms"`
	Bytes     int64         `json:"bytes"`
	LoadedAt  string        `json:"loaded_at"`
	Reloads   int64         `json:"reloads"`
	Schema    []FeatureInfo `json:"schema"`
}

// FeatureInfo describes one schema feature to API clients (fracload uses it
// to synthesize load).
type FeatureInfo struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Arity int    `json:"arity,omitempty"`
}

// ModelsResponse is the /v1/models document.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, errf(http.StatusMethodNotAllowed, "GET only"))
		return
	}
	doc := ModelsResponse{Models: make([]ModelInfo, 0, len(s.names))}
	for _, name := range s.names {
		rt := s.handles[name].Runtime()
		schema := rt.Schema()
		info := ModelInfo{
			Name:      name,
			ModelHash: rt.Hash(),
			Path:      rt.Path(),
			Terms:     rt.NumTerms(),
			Bytes:     rt.Bytes(),
			LoadedAt:  rt.LoadedAt().UTC().Format(time.RFC3339Nano),
			Reloads:   s.handles[name].Reloads(),
			Schema:    make([]FeatureInfo, len(schema)),
		}
		for i, f := range schema {
			info.Schema[i] = FeatureInfo{Name: f.Name, Kind: f.Kind.String(), Arity: f.Arity}
		}
		doc.Models = append(doc.Models, info)
	}
	writeJSON(w, http.StatusOK, doc)
}

// cell is one row value on the wire: a finite JSON number, or null for a
// missing value (the in-matrix NaN encoding has no JSON spelling).
type cell float64

func (c *cell) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*c = cell(dataset.Missing)
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("cell %q is not a number or null", b)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("cell %q is not finite (use null for missing)", b)
	}
	*c = cell(v)
	return nil
}

// ScoreRequest is the /v1/score request body.
type ScoreRequest struct {
	// Model selects the handle; optional when exactly one model is served.
	Model string `json:"model"`
	// Rows is the sample batch: one inner array per sample, one cell per
	// schema feature, null for missing.
	Rows [][]cell `json:"rows"`
	// Explain, when > 0, requests per-row attributions: the top-Explain
	// original features by signed NS contribution (clamped to the model's
	// feature count and the server's MaxExplain bound). 0 or absent is
	// plain scoring with zero attribution overhead.
	Explain int `json:"explain,omitempty"`
}

// AttributionInfo is one feature's role in one row's score, as served on
// the wire and written by frac -explain-top. Entries within a row are
// sorted by contribution descending (feature index ascending on exact
// ties) — the same ordering the cohort influence ranking uses.
type AttributionInfo struct {
	// Feature is the schema name of the attributed feature.
	Feature string `json:"feature"`
	// Orig is the feature's index in the model schema.
	Orig int `json:"orig"`
	// Contribution is the feature's signed summed NS contribution to the
	// row's score. Always finite on a 200 (a non-finite contribution makes
	// the total non-finite, which 422s the request).
	Contribution float64 `json:"contribution"`
	// Observed is the row's value for the feature; null when it was
	// missing (in which case the contribution is exactly 0).
	Observed *float64 `json:"observed"`
	// Predicted is what the feature's model expected given the rest of the
	// row (class label as a number for categorical features); null in the
	// degenerate case of a non-finite regression output on a row whose
	// target was missing, and in frac's replicate-mode documents, whose run
	// keeps no predictions.
	Predicted *float64 `json:"predicted"`
	// Terms is the number of NS summands aggregated into this entry
	// (omitted when 1, the full-wiring case).
	Terms int `json:"terms,omitempty"`
}

// ScoreResponse is the /v1/score response body.
type ScoreResponse struct {
	Model string `json:"model"`
	// ModelHash identifies the exact runtime that scored every row of this
	// response.
	ModelHash string `json:"model_hash"`
	// Scores is the total normalized surprisal per row, bit-identical to the
	// offline batch pipeline.
	Scores []float64 `json:"scores"`
	// Explanations, present exactly when the request set explain > 0,
	// carries one attribution list per row (same order as Scores), computed
	// by the same runtime the hash identifies.
	Explanations [][]AttributionInfo `json:"explanations,omitempty"`
}

// decodeScoreRequest parses and bounds-checks a score request body. All
// failures are 4xx.
func (s *Server) decodeScoreRequest(r *http.Request) (*Handle, *linalg.Matrix, int, error) {
	r.Body = http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	var req ScoreRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, nil, 0, errf(http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, nil, 0, errf(http.StatusBadRequest, "bad request body: %s", err)
	}

	h := s.handles[req.Model]
	switch {
	case req.Model == "" && len(s.names) == 1:
		h = s.handles[s.names[0]]
	case req.Model == "":
		return nil, nil, 0, errf(http.StatusBadRequest,
			"%d models served; request must name one of %v", len(s.names), s.names)
	case h == nil:
		return nil, nil, 0, errf(http.StatusNotFound, "unknown model %q (serving %v)", req.Model, s.names)
	}

	if req.Explain < 0 {
		return nil, nil, 0, errf(http.StatusBadRequest, "explain must be >= 0, got %d", req.Explain)
	}
	if req.Explain > s.cfg.MaxExplain {
		return nil, nil, 0, errf(http.StatusBadRequest,
			"explain depth %d exceeds limit %d", req.Explain, s.cfg.MaxExplain)
	}

	n := len(req.Rows)
	if n == 0 {
		return nil, nil, 0, errf(http.StatusBadRequest, "no rows")
	}
	if n > s.cfg.MaxRows {
		return nil, nil, 0, errf(http.StatusRequestEntityTooLarge,
			"%d rows exceeds per-request limit %d", n, s.cfg.MaxRows)
	}
	cols := len(h.Runtime().Schema())
	rows := linalg.NewMatrix(n, cols)
	for i, row := range req.Rows {
		if len(row) != cols {
			return nil, nil, 0, errf(http.StatusBadRequest,
				"row %d has %d values, model %q expects %d", i, len(row), h.name, cols)
		}
		dst := rows.Row(i)
		for j, v := range row {
			dst[j] = float64(v)
		}
	}
	explain := req.Explain
	if explain > cols {
		explain = cols
	}
	return h, rows, explain, nil
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	explained := false
	defer func() {
		s.cfg.Metrics.observeScoreSplit(explained, time.Since(start).Nanoseconds())
	}()
	if r.Method != http.MethodPost {
		writeErr(w, errf(http.StatusMethodNotAllowed, "POST only"))
		return
	}
	h, rows, explain, err := s.decodeScoreRequest(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	explained = explain > 0
	out := make([]float64, rows.Rows)
	var attr [][]core.Attribution
	var rt *Runtime
	if explain > 0 {
		attr = make([][]core.Attribution, rows.Rows)
		rt, err = h.batcher.SubmitExplained(r.Context(), rows, out, attr, explain)
	} else {
		rt, err = h.batcher.Submit(r.Context(), rows, out)
	}
	if err != nil {
		// Everything the batcher reports means "not scored, retry later":
		// shutdown, queue overload, cancellation, or a reload changing the
		// schema underneath the queued request.
		writeErr(w, errf(http.StatusServiceUnavailable, "%s", err))
		return
	}
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Extreme but schema-valid inputs can push a surprisal to +Inf;
			// JSON cannot carry it, so the row is reported instead of
			// silently mangled.
			writeErr(w, errf(http.StatusUnprocessableEntity,
				"row %d produced a non-finite score", i))
			return
		}
	}
	resp := ScoreResponse{Model: h.name, ModelHash: rt.Hash(), Scores: out}
	if explain > 0 {
		resp.Explanations = make([][]AttributionInfo, len(attr))
		for i, rowAttr := range attr {
			resp.Explanations[i] = Attributions(rowAttr, rt.Schema())
		}
		h.batcher.cfg.Metrics.observeExplain(explain, rows.Rows)
		s.cfg.Recorder.Annotate("explain", explainAnnotation(h.name, rt, attr, explain))
	}
	writeJSON(w, http.StatusOK, resp)
}

// Attributions renders one row's attributions for the wire: each feature
// named by its Orig index in schema (which stays right for filtered wirings,
// where Target indexes a reduced schema), a missing observation and a
// non-finite prediction as JSON null.
func Attributions(attrs []core.Attribution, schema dataset.Schema) []AttributionInfo {
	infos := make([]AttributionInfo, len(attrs))
	for i, a := range attrs {
		info := AttributionInfo{
			Feature:      schema[a.Orig].Name,
			Orig:         a.Orig,
			Contribution: a.Contribution,
		}
		if !a.MissingObserved() {
			v := a.Observed
			info.Observed = &v
		}
		if !math.IsNaN(a.Predicted) && !math.IsInf(a.Predicted, 0) {
			v := a.Predicted
			info.Predicted = &v
		}
		if a.Terms > 1 {
			info.Terms = a.Terms
		}
		infos[i] = info
	}
	return infos
}

// explainAnnotation summarizes one explain request for the journal: the
// request-level top culprit features by summed contribution across its
// rows, in the same key=value format the drift annotations use, so
// fracmetrics can fold journals into a cohort attribution summary.
func explainAnnotation(name string, rt *Runtime, attr [][]core.Attribution, k int) string {
	type agg struct {
		target int
		sum    float64
	}
	byOrig := map[int]*agg{}
	for _, rowAttr := range attr {
		for _, a := range rowAttr {
			g := byOrig[a.Orig]
			if g == nil {
				g = &agg{target: a.Target}
				byOrig[a.Orig] = g
			}
			g.sum += a.Contribution
		}
	}
	type kv struct {
		orig int
		agg  *agg
	}
	tops := make([]kv, 0, len(byOrig))
	for o, g := range byOrig {
		tops = append(tops, kv{o, g})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].agg.sum != tops[j].agg.sum {
			return tops[i].agg.sum > tops[j].agg.sum
		}
		return tops[i].orig < tops[j].orig
	})
	const maxTop = 4
	if len(tops) > maxTop {
		tops = tops[:maxTop]
	}
	schema := rt.Schema()
	top := ""
	for i, t := range tops {
		if i > 0 {
			top += ","
		}
		top += fmt.Sprintf("%s:%+.3f", schema[t.agg.target].Name, t.agg.sum)
	}
	return fmt.Sprintf("model=%s rows=%d k=%d top=[%s]", name, len(attr), k, top)
}

// ReloadResult is one model's outcome in a /v1/reload response.
type ReloadResult struct {
	Model     string `json:"model"`
	ModelHash string `json:"model_hash,omitempty"`
	Changed   bool   `json:"changed"`
	Error     string `json:"error,omitempty"`
}

// ReloadResponse is the /v1/reload document.
type ReloadResponse struct {
	Results []ReloadResult `json:"results"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, errf(http.StatusMethodNotAllowed, "POST only"))
		return
	}
	names := s.names
	if want := r.URL.Query().Get("model"); want != "" {
		if s.handles[want] == nil {
			writeErr(w, errf(http.StatusNotFound, "unknown model %q (serving %v)", want, s.names))
			return
		}
		names = []string{want}
	}
	doc := ReloadResponse{Results: make([]ReloadResult, 0, len(names))}
	status := http.StatusOK
	for _, name := range names {
		res := s.ReloadHandle(name)
		if res.Error != "" {
			status = http.StatusInternalServerError
		}
		doc.Results = append(doc.Results, res)
	}
	writeJSON(w, status, doc)
}

// ReloadHandle hot-reloads one model by name (shared by POST /v1/reload and
// fracserve's SIGHUP path) and journals the outcome. A failed reload leaves
// the previous runtime serving.
func (s *Server) ReloadHandle(name string) ReloadResult {
	h := s.handles[name]
	if h == nil {
		return ReloadResult{Model: name, Error: "unknown model"}
	}
	rt, changed, err := h.Reload()
	if err != nil {
		s.cfg.Recorder.Annotate("serve_reload", fmt.Sprintf("%s error=%s", name, err))
		return ReloadResult{Model: name, Error: err.Error()}
	}
	if changed {
		// A new artifact may carry a different reference (or none); drift
		// history against the old reference no longer applies.
		s.attachMonitor(h)
	}
	s.cfg.Recorder.Annotate("serve_reload",
		fmt.Sprintf("%s hash=%s changed=%v", name, rt.Hash(), changed))
	return ReloadResult{Model: name, ModelHash: rt.Hash(), Changed: changed}
}

// TermHealth is one drifted term in a /v1/health report.
type TermHealth struct {
	Term    int     `json:"term"`
	Feature string  `json:"feature"`
	Shift   float64 `json:"shift"`
}

// ModelHealth is one model's drift verdict in a /v1/health response.
type ModelHealth struct {
	Model string `json:"model"`
	// Status is healthy | drifting | retrain_recommended, or "unmonitored"
	// when the loaded artifact carries no drift reference (or monitoring is
	// disabled).
	Status    string `json:"status"`
	Monitored bool   `json:"monitored"`
	// Trigger names the statistic that (last) tripped the alarm.
	Trigger       string  `json:"trigger,omitempty"`
	LogMartingale float64 `json:"log_martingale"`
	PSI           float64 `json:"psi"`
	KS            float64 `json:"ks"`
	Windows       int64   `json:"windows"`
	Samples       int64   `json:"samples"`
	WindowSize    int     `json:"window_size"`
	WindowFill    int     `json:"window_fill"`
	NSMean        float64 `json:"ns_mean"`
	NSP50         float64 `json:"ns_p50"`
	NSP95         float64 `json:"ns_p95"`
	NSP99         float64 `json:"ns_p99"`
	RefMean       float64 `json:"ref_mean"`
	RefSD         float64 `json:"ref_sd"`
	RefSamples    int     `json:"ref_samples"`
	// TopTerms are the most-drifted feature terms of the last closed
	// window, by absolute standardized mean shift.
	TopTerms []TermHealth `json:"top_terms,omitempty"`
}

// HealthResponse is the /v1/health document.
type HealthResponse struct {
	Models []ModelHealth `json:"models"`
}

// jsonF makes a float JSON-safe: NaN and infinities (possible only in
// degenerate monitors that have seen no finite samples) render as 0.
func jsonF(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, errf(http.StatusMethodNotAllowed, "GET only"))
		return
	}
	doc := HealthResponse{Models: make([]ModelHealth, 0, len(s.names))}
	for _, name := range s.names {
		h := s.handles[name]
		mon := h.Monitor()
		if mon == nil {
			doc.Models = append(doc.Models, ModelHealth{Model: name, Status: "unmonitored"})
			continue
		}
		snap := mon.Snapshot()
		mh := ModelHealth{
			Model:         name,
			Status:        snap.State.String(),
			Monitored:     true,
			Trigger:       snap.Trigger,
			LogMartingale: jsonF(snap.LogM),
			PSI:           jsonF(snap.PSI),
			KS:            jsonF(snap.KS),
			Windows:       snap.Windows,
			Samples:       snap.Samples,
			WindowSize:    snap.WindowSize,
			WindowFill:    snap.WindowFill,
			NSMean:        jsonF(snap.Mean),
			NSP50:         jsonF(snap.P50),
			NSP95:         jsonF(snap.P95),
			NSP99:         jsonF(snap.P99),
			RefMean:       jsonF(snap.RefMean),
			RefSD:         jsonF(snap.RefSD),
			RefSamples:    snap.RefN,
		}
		rt := h.Runtime()
		for _, ts := range snap.Top {
			mh.TopTerms = append(mh.TopTerms, TermHealth{
				Term:    ts.Term,
				Feature: rt.TermFeature(ts.Term),
				Shift:   jsonF(ts.Shift),
			})
		}
		doc.Models = append(doc.Models, mh)
	}
	writeJSON(w, http.StatusOK, doc)
}
