package core

import (
	"context"
	"fmt"
	"math"

	"frac/internal/dataset"
	"frac/internal/drift"
	"frac/internal/stats"
)

// DriftReference returns the model's captured healthy NS distribution, or
// nil when none was captured. The returned reference is shared and
// read-only.
func (m *Model) DriftReference() *drift.Reference { return m.driftRef }

// TermTarget returns the original feature index term ti predicts — the
// stable identity used to name a drifted term across serving and tooling.
func (m *Model) TermTarget(ti int) int {
	return m.terms[ti].term.Orig
}

// CaptureDriftReference scores ref (a held-out all-normal sample set, or
// the training set itself when nothing is held out) through the model and
// stores the resulting NS distribution — totals histogram, quantile cells,
// and per-term contribution summaries — as the model's drift reference. It
// replaces any previous reference and requires at least drift.MinSamples
// finite-scoring samples.
func (m *Model) CaptureDriftReference(ctx context.Context, ref *dataset.Dataset) error {
	ss, err := m.ScoreDatasetCtx(ctx, ref)
	if err != nil {
		return err
	}
	totals := ss.Totals()
	for i, v := range totals {
		// A reference sample the model finds infinitely surprising would
		// poison every window comparison; surface it at train time instead.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: drift reference sample %d scores non-finite (%v)", i, v)
		}
	}
	termMean := make([]float64, len(m.terms))
	termSD := make([]float64, len(m.terms))
	for t := range m.terms {
		var w stats.Welford
		for _, v := range ss.PerTerm.Row(t) {
			w.Add(v)
		}
		termMean[t] = w.Mean()
		termSD[t] = w.StdDev()
	}
	r, err := drift.BuildReference(totals, termMean, termSD)
	if err != nil {
		return err
	}
	m.driftRef = r
	return nil
}
