// Package drift monitors the distribution of served normalized-surprisal
// (NS) scores for distributional change — the model-health signal of the
// serving layer. FRaC's score is itself an information quantity ("how
// surprising is this sample against the training population"), so the
// stream of served scores is a ready-made drift detector: when incoming
// traffic moves away from the regime the model was trained on, the NS
// distribution shifts long before any labeled accuracy metric could.
//
// The subsystem has three parts:
//
//   - A Reference — the NS distribution captured at train time from
//     held-out (or training) normals, persisted inside the model artifact:
//     a fixed-bin histogram in the symmetric-log domain, equiprobable
//     quantile cells, and per-term contribution summaries. Every serving
//     runtime therefore knows what "healthy" looks like without any
//     serving-side warmup.
//
//   - A Monitor — constant-memory streaming state per mounted model:
//     rolling windows of served scores (histogram + quantile-cell counts +
//     Welford moments) compared against the reference at every window
//     close, plus lifetime quantile tracking (P² estimators). Its alarm is
//     a sequential e-process in the spirit of surprisal-based monitoring: a
//     prequential plug-in martingale over the reference's quantile cells,
//     CUSUM-clamped, whose log wealth only grows while traffic is
//     persistently easier to predict by an adapted alternative than by the
//     reference. PSI over the histogram bins (debiased for finite samples)
//     is the fast trigger for gross shifts; the Kolmogorov–Smirnov distance
//     at the reference quantiles is reported alongside.
//
//   - A Collector — per-scoring-worker accumulator of per-term NS
//     contributions (plugged into the scorer as a core.TermObserver), so a
//     drift verdict can name the feature terms that moved: the explanation
//     a precision-medicine operator needs to decide whether to retrain.
//
// Everything on the per-sample path is allocation-free; divergence
// statistics and state transitions are computed once per window.
package drift

import "fmt"

// State is a model's drift verdict.
type State int32

// Drift states, in increasing severity.
const (
	// Healthy: served NS is statistically compatible with the reference.
	Healthy State = iota
	// Drifting: the alarm tripped (martingale past its alert threshold or
	// PSI past its gross-shift threshold) but not persistently enough to
	// demand action.
	Drifting
	// RetrainRecommended: drift persisted across windows or the martingale
	// accumulated overwhelming evidence; the model no longer describes the
	// traffic and should be retrained.
	RetrainRecommended
)

var stateNames = [...]string{"healthy", "drifting", "retrain_recommended"}

// String returns the wire spelling used by /v1/health and the journal.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int32(s))
	}
	return stateNames[s]
}
