package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"frac"
	"frac/internal/serve"
)

// Per-sample explanation output: -explain-top K turns a scoring run into a
// decision-observability surface, emitting one JSONL document per flagged
// sample naming the culprit features, their signed NS contributions, and
// observed-vs-predicted values. Samples are flagged by score quantile
// (-explain-quantile) and, when the test set is labeled, by label — so the
// output covers both "what the detector fired on" and "what it should have
// fired on".

// explainOptions is the CLI's explanation configuration.
type explainOptions struct {
	top      int     // attribution depth (0 = explanations off)
	out      string  // JSONL destination ("" = stdout)
	quantile float64 // NS quantile at or above which a sample is flagged
}

// explainDoc is one flagged sample's JSONL line.
type explainDoc struct {
	Sample       int                     `json:"sample"`
	Replicate    int                     `json:"replicate,omitempty"`
	NS           float64                 `json:"ns"`
	Flag         string                  `json:"flag"` // "quantile", "label", or "quantile+label"
	Attributions []serve.AttributionInfo `json:"attributions"`
}

// explainWriter serializes explanation documents to the -explain-out sink.
type explainWriter struct {
	enc   *json.Encoder
	close func() error
	n     int
}

func newExplainWriter(path string) (*explainWriter, error) {
	if path == "" {
		return &explainWriter{enc: json.NewEncoder(os.Stdout)}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &explainWriter{enc: json.NewEncoder(f), close: f.Close}, nil
}

func (w *explainWriter) emit(doc explainDoc) error {
	w.n++
	return w.enc.Encode(doc)
}

func (w *explainWriter) Close() error {
	if w.close != nil {
		return w.close()
	}
	return nil
}

// flagThreshold returns the NS value at the q-quantile of scores (nearest
// rank); every score at or above it is flagged.
func flagThreshold(scores []float64, q float64) float64 {
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// flagOf classifies why a sample is explained; "" means it is not flagged.
func flagOf(score, thr float64, anomalous []bool, i int) string {
	byQ := score >= thr
	byL := anomalous != nil && anomalous[i]
	switch {
	case byQ && byL:
		return "quantile+label"
	case byQ:
		return "quantile"
	case byL:
		return "label"
	}
	return ""
}

// explainScoredModel is the -load-model explanation path: rescore the test
// set through the explained pipeline (totals are bit-identical to plain
// scoring) and emit every flagged sample's top-k attribution.
func explainScoredModel(model *frac.Model, test *frac.Dataset, scores []float64, eo explainOptions) error {
	ew := frac.NewExplainWorkspace()
	if err := model.ScoreRowsExplainedInto(test.X, scores, frac.NewScoreWorkspace(), ew, eo.top); err != nil {
		return err
	}
	w, err := newExplainWriter(eo.out)
	if err != nil {
		return err
	}
	thr := flagThreshold(scores, eo.quantile)
	for i, ns := range scores {
		flag := flagOf(ns, thr, test.Anomalous, i)
		if flag == "" {
			continue
		}
		if err := w.emit(explainDoc{
			Sample:       i,
			NS:           ns,
			Flag:         flag,
			Attributions: serve.Attributions(ew.Attributions(i), test.Schema),
		}); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	if eo.out != "" {
		fmt.Fprintf(os.Stderr, "explained %d flagged samples (top %d features) to %s\n", w.n, ew.Depth(), eo.out)
	}
	return nil
}

// explainResult is the run-mode explanation path: attribute flagged samples
// from the completed run's per-term scores. Predictions are not retained in
// the result matrix, so these documents carry observed values only.
func explainResult(res *frac.Result, test *frac.Dataset, scores []float64, replicate int, eo explainOptions, w *explainWriter) error {
	thr := flagThreshold(scores, eo.quantile)
	for i, ns := range scores {
		flag := flagOf(ns, thr, test.Anomalous, i)
		if flag == "" {
			continue
		}
		attrs, err := frac.SampleAttributions(res, i, eo.top)
		if err != nil {
			return err
		}
		for j := range attrs {
			attrs[j].Observed = test.Sample(i)[attrs[j].Orig]
		}
		if err := w.emit(explainDoc{
			Sample:       i,
			Replicate:    replicate,
			NS:           ns,
			Flag:         flag,
			Attributions: serve.Attributions(attrs, test.Schema),
		}); err != nil {
			return err
		}
	}
	return nil
}
