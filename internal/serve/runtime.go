// Package serve is the online scoring runtime of the FRaC reproduction: it
// wraps models persisted with frac.SaveModel into long-lived scoring
// runtimes, coalesces concurrent requests through a micro-batching queue
// onto the zero-alloc batch scoring path, and exposes the whole thing as an
// HTTP/JSON API with atomic hot model reload.
//
// The package splits the training artifact from the scoring runtime
// (ROADMAP item 1): a *core.Model is what training produces and persistence
// round-trips; a *Runtime is one immutable loaded instance of it — model
// plus identity (content hash) and provenance — and a *Handle is the stable
// name under which successive runtimes are swapped atomically, so in-flight
// batches finish on the runtime they started with while new batches pick up
// the reloaded one.
package serve

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync/atomic"
	"time"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/drift"
	"frac/internal/linalg"
)

// Runtime is one immutable loaded model: the scoring artifact plus its
// identity. All fields are read-only after load; any number of workers may
// score through it concurrently (per-worker scratch lives in
// core.ScoreWorkspace, not here).
type Runtime struct {
	model *core.Model
	// hash is the runtime's identity: the obs-style FNV-64a content hash of
	// the model file bytes. Two runtimes share a hash iff they were loaded
	// from byte-identical artifacts, so a response stamped with a hash is
	// attributable to exactly one fully loaded model.
	hash     string
	path     string
	bytes    int64
	loadedAt time.Time
}

// LoadRuntime reads a persisted model from path and wraps it as a runtime.
func LoadRuntime(path string) (*Runtime, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := fnv.New64a()
	model, err := core.ReadModel(io.TeeReader(f, h))
	if err == nil {
		// ReadModel may stop anywhere past the model's last byte; hash the
		// rest, so the identity covers exactly the file.
		_, err = io.Copy(h, f)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	return &Runtime{
		model:    model,
		hash:     fmt.Sprintf("%016x", h.Sum64()),
		path:     path,
		bytes:    model.Bytes(),
		loadedAt: time.Now(),
	}, nil
}

// Hash returns the runtime's content hash (the identity stamped on every
// score response).
func (rt *Runtime) Hash() string { return rt.hash }

// Path returns the file the runtime was loaded from.
func (rt *Runtime) Path() string { return rt.path }

// LoadedAt returns the load time.
func (rt *Runtime) LoadedAt() time.Time { return rt.loadedAt }

// Schema returns the model's feature schema (read-only).
func (rt *Runtime) Schema() dataset.Schema { return rt.model.Schema() }

// NumTerms returns the model's NS term count.
func (rt *Runtime) NumTerms() int { return rt.model.NumTerms() }

// Bytes returns the model's retained analytic footprint.
func (rt *Runtime) Bytes() int64 { return rt.bytes }

// DriftReference returns the healthy NS distribution persisted with the
// model, or nil when the artifact carries none (version-1 artifacts, or
// training with drift capture disabled).
func (rt *Runtime) DriftReference() *drift.Reference { return rt.model.DriftReference() }

// TermFeature names the schema feature term ti predicts, for drift
// localization reports.
func (rt *Runtime) TermFeature(ti int) string {
	schema := rt.model.Schema()
	if target := rt.model.TermTarget(ti); target >= 0 && target < len(schema) {
		return schema[target].Name
	}
	return fmt.Sprintf("term%d", ti)
}

// ScoreInto scores each row of rows into out using ws (see
// core.Model.ScoreRowsInto; bit-identical to the batch pipeline at any
// partitioning).
func (rt *Runtime) ScoreInto(rows *linalg.Matrix, out []float64, ws *core.ScoreWorkspace) error {
	return rt.model.ScoreRowsInto(rows, out, ws)
}

// Handle is the stable serving slot of one named model: requests address the
// name, reloads atomically swap the runtime underneath it. Batches read the
// runtime exactly once per flush, so every row of a batch — and therefore
// every response — is scored by one fully loaded runtime even while a
// reload is in flight.
type Handle struct {
	name string
	path string
	cur  atomic.Pointer[Runtime]

	reloads atomic.Int64 // successful Reload calls (the initial load is not counted)

	// mon is the handle's drift monitor (nil when the loaded model carries
	// no reference or monitoring is disabled). Swapped atomically alongside
	// runtime reloads; a batch records into whichever monitor it loads, so
	// a reload never tears a window.
	mon atomic.Pointer[drift.Monitor]

	batcher *Batcher
}

// NewHandle loads the model at path and wraps it in a serving handle. The
// handle has no batcher yet; Server attaches one.
func NewHandle(name, path string) (*Handle, error) {
	rt, err := LoadRuntime(path)
	if err != nil {
		return nil, err
	}
	h := &Handle{name: name, path: path}
	h.cur.Store(rt)
	return h, nil
}

// Name returns the handle's serving name.
func (h *Handle) Name() string { return h.name }

// Runtime returns the current runtime. The returned pointer stays valid (and
// immutable) after any number of reloads; callers needing batch-consistent
// scoring read it once and use that instance throughout.
func (h *Handle) Runtime() *Runtime { return h.cur.Load() }

// Reloads returns the number of completed hot reloads.
func (h *Handle) Reloads() int64 { return h.reloads.Load() }

// Monitor returns the handle's drift monitor (nil when unmonitored).
func (h *Handle) Monitor() *drift.Monitor { return h.mon.Load() }

// SetMonitor installs (or clears, with nil) the handle's drift monitor.
func (h *Handle) SetMonitor(m *drift.Monitor) { h.mon.Store(m) }

// Reload re-reads the handle's model file and atomically swaps it in,
// returning the new runtime and whether its hash changed. The load happens
// entirely off to the side: scoring keeps using the old runtime until the
// swap, a failed load leaves the old runtime serving, and in-flight batches
// that already picked up the old runtime finish on it.
func (h *Handle) Reload() (rt *Runtime, changed bool, err error) {
	prev := h.cur.Load()
	rt, err = LoadRuntime(h.path)
	if err != nil {
		return nil, false, err
	}
	h.cur.Store(rt)
	h.reloads.Add(1)
	return rt, prev == nil || prev.hash != rt.hash, nil
}

// ScoreBatch implements the batcher's Scorer contract: it pins the current
// runtime, scores the whole batch against it, and reports which runtime was
// used so responses can be stamped with the model hash. When the handle has
// a drift monitor and the worker supplied a collector, the batch is scored
// through the observed path — the observer sees exactly the contributions
// that are summed, so scores stay bit-identical — and its totals plus
// per-term sums are folded into the monitor. ew/k thread the batch's
// attribution capture through the same pass (nil/0 for plain batches);
// capture is another pure observation, so drift, explanations, and scores
// all come from one set of contributions.
func (h *Handle) ScoreBatch(rows *linalg.Matrix, out []float64, ws *core.ScoreWorkspace, col *drift.Collector, ew *core.ExplainWorkspace, k int) (*Runtime, error) {
	rt := h.cur.Load()
	mon := h.mon.Load()
	var obs core.TermObserver
	if mon != nil && col != nil {
		col.Reset(rt.NumTerms())
		obs = col
	}
	if err := rt.model.ScoreRowsExplainedObserved(rows, out, ws, obs, ew, k); err != nil {
		return nil, err
	}
	if obs != nil {
		mon.Record(out, col)
	}
	return rt, nil
}
