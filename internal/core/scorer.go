package core

import (
	"fmt"
	"sync"

	"frac/internal/dataset"
	"frac/internal/linalg"
)

// Scoring runtime: the serving-side face of a trained model. Training
// produces a *Model (an artifact that can be persisted and reloaded); a
// long-lived scorer — the fracserve daemon, or any embedder — needs a way to
// push small batches of raw rows through the model repeatedly without
// allocating, without a *dataset.Dataset per call, and without the per-term
// parallel fan-out of ScoreDataset (which is tuned for one huge batch, not
// thousands of small ones per second). ScoreRowsInto is that path: it runs
// the exact same per-term batch scoring code as ScoreDataset over a
// caller-owned row matrix, accumulating totals in the same term order, so
// its outputs are bit-identical to ScoreDataset().Totals() for any
// partitioning of the rows into batches (per-row predictions never depend on
// the other rows of the batch).

// ScoreWorkspace is the reusable scratch state of ScoreRowsInto. One
// workspace serves any number of models and batch shapes (buffers grow to
// the high-water mark and are reused); it is NOT safe for concurrent use —
// give each scoring worker its own.
type ScoreWorkspace struct {
	ws  scoreWorkspace
	row []float64
	// z and k hold a batch's projection onto the model's basis
	// (dualBasis.project).
	z []float64
	k *linalg.Matrix
}

// NewScoreWorkspace returns an empty workspace; buffers are allocated on
// first use and reused after that.
func NewScoreWorkspace() *ScoreWorkspace { return &ScoreWorkspace{} }

// sampleScratch is Score's pooled state: a one-row matrix header over the
// caller's sample, its output slot, and a scoring workspace.
type sampleScratch struct {
	row linalg.Matrix
	out [1]float64
	ws  ScoreWorkspace
}

// samplePool keeps Score allocation-free in steady state under concurrent
// callers.
var samplePool = sync.Pool{New: func() any { return new(sampleScratch) }}

// Score returns the total normalized surprisal of one sample (one cell per
// schema feature, missing values as dataset.Missing): higher means more
// anomalous. It runs the batch loop of ScoreRowsInto over the sample as a
// one-row matrix, so it is bit-identical to ScoreDataset(...).Totals(). A
// sample of the wrong width panics with the scoring error; callers holding
// unvalidated input should use ScoreRowsInto, which returns it.
func (m *Model) Score(sample []float64) float64 {
	sc := samplePool.Get().(*sampleScratch)
	sc.row = linalg.Matrix{Rows: 1, Cols: len(sample), Data: sample}
	err := m.scoreRows(&sc.row, sc.out[:], &sc.ws, nil, nil, 0)
	ns := sc.out[0]
	sc.row.Data = nil // do not pin the caller's sample
	samplePool.Put(sc)
	if err != nil {
		panic(err)
	}
	return ns
}

// Schema returns the feature schema the model was trained under (the shape
// every scored row must have). The returned slice is the model's own — do
// not mutate it.
func (m *Model) Schema() dataset.Schema { return m.schema }

// ScoreRowsInto scores each row of rows (one sample per row, exactly one
// cell per schema feature, missing values as dataset.Missing) and writes the
// total normalized surprisal of row i into out[i]. len(out) must equal
// rows.Rows. Steady-state it performs zero allocations once ws has grown to
// the batch shape.
//
// The per-sample totals are bit-identical to
// m.ScoreDataset(test).Totals() over the same rows, at any batch
// partitioning: each term's contribution is computed by the identical batch
// prediction path, and contributions accumulate in ascending term order
// exactly as ScoreSet.Totals does.
func (m *Model) ScoreRowsInto(rows *linalg.Matrix, out []float64, ws *ScoreWorkspace) error {
	return m.scoreRows(rows, out, ws, nil, nil, 0)
}

// TermObserver receives each term's per-row NS contributions during
// ScoreRowsExplainedObserved. ObserveTerm is called once per term, in
// ascending term order, with the contribution of term ti to each row of the
// batch; the slice is the scorer's scratch and must not be retained. The
// observer sees exactly the contributions that are summed into the totals,
// so observing changes no score bit. The drift monitor's collector
// satisfies this to localize which terms moved.
type TermObserver interface {
	ObserveTerm(ti int, contribs []float64)
}

// scoreRows is the one scoring loop behind Score, ScoreRowsInto,
// ScoreRowsExplainedInto and ScoreRowsExplainedObserved. When the model has
// a basis, each row is projected onto it once, as ScoreDataset does, for the
// Gram-routed terms to read. When explanation is on (ew non-nil, k > 0)
// each term's contributions are computed directly into the capture matrix
// instead of the transient row buffer — same computation, different
// destination — and its raw predictions are recorded alongside; totals
// accumulate in ascending term order either way, which is what keeps
// explained scores bit-identical to plain ones.
func (m *Model) scoreRows(rows *linalg.Matrix, out []float64, ws *ScoreWorkspace, obs TermObserver, ew *ExplainWorkspace, k int) error {
	if rows.Cols != len(m.schema) {
		return fmt.Errorf("core: rows have %d features, model expects %d", rows.Cols, len(m.schema))
	}
	n := rows.Rows
	if len(out) != n {
		return fmt.Errorf("core: %d output slots for %d rows", len(out), n)
	}
	capture := ew != nil && k > 0
	if capture {
		ew.grow(m, n, k)
	}
	d := dataset.Dataset{Name: "rows", Schema: m.schema, X: rows}
	for i := range out {
		out[i] = 0
	}
	if cap(ws.row) < n {
		ws.row = make([]float64, n)
	}
	row := ws.row[:n]
	var proj *linalg.Matrix
	if m.basis != nil {
		if cap(ws.z) < len(m.schema) {
			ws.z = make([]float64, len(m.schema))
		}
		ws.k = linalg.Resize(ws.k, n, m.basis.z.Rows)
		m.basis.project(rows, ws.z[:len(m.schema)], ws.k)
		proj = ws.k
	}
	for ti := range m.terms {
		dst, predCap := row, []float64(nil)
		if capture {
			dst, predCap = ew.contrib.Row(ti), ew.preds.Row(ti)
		}
		m.scoreTermBatch(ti, &d, proj, dst, &ws.ws, predCap)
		if obs != nil {
			obs.ObserveTerm(ti, dst)
		}
		for s, v := range dst {
			out[s] += v
		}
	}
	if capture {
		ew.finish(rows)
	}
	return nil
}
