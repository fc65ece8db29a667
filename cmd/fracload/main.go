// Command fracload is a closed-loop load generator for fracserve: N
// concurrent clients each keep exactly one score request in flight against
// POST /v1/score for a fixed duration, then the tool reports sustained QPS,
// row throughput, and the full client-side latency tail (p50/p90/p99/p999).
//
//	fracload -addr http://127.0.0.1:8316 -duration 10s -concurrency 16
//
// Rows are synthesized from the served model's schema (fetched via
// /v1/models): reals from a seeded normal generator, categoricals as labels
// in [0, arity). -rows-from replays normal rows from a TSV dataset instead,
// so the traffic matches the model's drift reference; -shift adds a constant
// to every real feature either way — a covariate-shift injection for
// exercising the drift monitor. Closed-loop means measured QPS is a
// sustained-throughput floor — clients never pile up unbounded queues the
// way open-loop generators do.
//
// -explain K runs a second measured pass after the plain one with
// "explain": K on every request, validating each response's attribution
// schema and reporting explain-on p50/p99 next to the plain numbers — the
// attribution path's overhead as a measured delta within one run.
//
// -min-qps and -max-p99 turn the run into a pass/fail gate for CI (both
// apply to the explain pass too).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"frac"
)

type options struct {
	addr        string
	model       string
	concurrency int
	duration    time.Duration
	warmup      time.Duration
	rows        int
	seed        int64
	minQPS      float64
	maxP99      time.Duration
	rowsFrom    string
	shift       float64
	explain     int
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", "http://127.0.0.1:8316", "fracserve base URL")
	flag.StringVar(&opt.model, "model", "", "model to score (default: the single served model)")
	flag.IntVar(&opt.concurrency, "concurrency", 16, "concurrent closed-loop clients")
	flag.DurationVar(&opt.duration, "duration", 10*time.Second, "measured load duration")
	flag.DurationVar(&opt.warmup, "warmup", time.Second, "warmup before measuring")
	flag.IntVar(&opt.rows, "rows", 1, "rows per request")
	flag.Int64Var(&opt.seed, "seed", 1, "row synthesis seed")
	flag.Float64Var(&opt.minQPS, "min-qps", 0, "fail (exit 1) if sustained QPS falls below this")
	flag.DurationVar(&opt.maxP99, "max-p99", 0, "fail (exit 1) if client-side p99 latency exceeds this")
	flag.StringVar(&opt.rowsFrom, "rows-from", "", "TSV dataset to replay rows from (normal rows only) instead of synthesizing")
	flag.Float64Var(&opt.shift, "shift", 0, "add this constant to every real feature (covariate-shift injection)")
	flag.IntVar(&opt.explain, "explain", 0, "after the plain pass, run a second measured pass requesting top-K attributions and validating their schema (0 = off)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fracload: unexpected argument %q: fracload takes no arguments, and flags after one would be ignored\n", flag.Arg(0))
		os.Exit(2)
	}

	if err := run(opt); err != nil {
		fmt.Fprintf(os.Stderr, "fracload: %v\n", err)
		os.Exit(1)
	}
}

// modelsDoc mirrors the /v1/models response shape (kept structurally
// compatible with serve.ModelsResponse without importing server internals —
// fracload exercises the wire contract like any external client).
type modelsDoc struct {
	Models []modelEntry `json:"models"`
}

type modelEntry struct {
	Name      string         `json:"name"`
	ModelHash string         `json:"model_hash"`
	Terms     int            `json:"terms"`
	Schema    []featureEntry `json:"schema"`
}

type featureEntry struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Arity int    `json:"arity"`
}

type scoreDoc struct {
	ModelHash    string             `json:"model_hash"`
	Scores       []float64          `json:"scores"`
	Explanations [][]attributionDoc `json:"explanations"`
}

// attributionDoc mirrors the serve wire schema of one attribution entry.
type attributionDoc struct {
	Feature      string   `json:"feature"`
	Orig         int      `json:"orig"`
	Contribution float64  `json:"contribution"`
	Observed     *float64 `json:"observed"`
	Predicted    *float64 `json:"predicted"`
	Terms        int      `json:"terms"`
}

// result is the measured outcome.
type result struct {
	DurationSecs float64
	Requests     int64
	Errors       int64
	QPS          float64
	RowsPerSec   float64
	P50Ms        float64
	P90Ms        float64
	P99Ms        float64
	P999Ms       float64
	MaxMs        float64

	// Explain-pass results, set only when -explain K > 0.
	ExplainQPS   float64
	ExplainP50Ms float64
	ExplainP99Ms float64
}

func run(opt options) error {
	if opt.concurrency < 1 || opt.rows < 1 {
		return errors.New("-concurrency and -rows must be at least 1")
	}
	base := strings.TrimRight(opt.addr, "/")
	if !strings.Contains(base, "://") {
		// Accept the bare host:port that fracserve's -addr flag takes.
		base = "http://" + base
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        opt.concurrency * 2,
			MaxIdleConnsPerHost: opt.concurrency * 2,
		},
	}

	// Discover the target model and its schema.
	resp, err := client.Get(base + "/v1/models")
	if err != nil {
		return err
	}
	var models modelsDoc
	err = json.NewDecoder(resp.Body).Decode(&models)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding /v1/models: %w", err)
	}
	if len(models.Models) == 0 {
		return errors.New("server has no models")
	}
	target := models.Models[0]
	if opt.model != "" {
		found := false
		for _, m := range models.Models {
			if m.Name == opt.model {
				target, found = m, true
				break
			}
		}
		if !found {
			return fmt.Errorf("server does not serve model %q", opt.model)
		}
	}

	// Pre-marshal a pool of request bodies so the hot loop measures the
	// server, not the generator's JSON encoder.
	bodies, err := buildBodies(target, opt, 0)
	if err != nil {
		return err
	}
	fmt.Printf("fracload: target %s hash=%s features=%d terms=%d\n",
		target.Name, target.ModelHash, len(target.Schema), target.Terms)
	if opt.shift != 0 {
		fmt.Printf("fracload: injecting covariate shift %+g on every real feature\n", opt.shift)
	}
	fmt.Printf("fracload: %d clients x %d rows/request for %v (after %v warmup)\n",
		opt.concurrency, opt.rows, opt.duration, opt.warmup)

	url := base + "/v1/score"
	plain, err := measurePhase(client, url, bodies, opt, plainCheck(opt.rows))
	if err != nil {
		return err
	}
	res := plain.toResult(opt)
	fmt.Printf("fracload: %d requests in %.2fs (%d errors)\n", res.Requests, res.DurationSecs, res.Errors)
	fmt.Printf("fracload: %.0f req/s, %.0f rows/s\n", res.QPS, res.RowsPerSec)
	fmt.Printf("fracload: latency p50=%.3fms p90=%.3fms p99=%.3fms p999=%.3fms max=%.3fms\n",
		res.P50Ms, res.P90Ms, res.P99Ms, res.P999Ms, res.MaxMs)

	// Second measured pass with attribution capture: same rows, same
	// clients, "explain": K on every request and full schema validation of
	// every response — so the explain overhead is a measured delta between
	// two phases of one run, not a guess.
	if opt.explain > 0 {
		explBodies, err := buildBodies(target, opt, opt.explain)
		if err != nil {
			return err
		}
		fmt.Printf("fracload: explain pass: top-%d attributions on every request\n", opt.explain)
		expl, err := measurePhase(client, url, explBodies, opt, explainCheck(opt.rows, opt.explain))
		if err != nil {
			return fmt.Errorf("explain pass: %w", err)
		}
		res.ExplainQPS = expl.qps()
		res.ExplainP50Ms = ms(quantile(expl.lats, 0.50))
		res.ExplainP99Ms = ms(quantile(expl.lats, 0.99))
		fmt.Printf("fracload: explain-on %.0f req/s, latency p50=%.3fms p99=%.3fms (overhead %+.1f%% p50 vs plain)\n",
			res.ExplainQPS, res.ExplainP50Ms, res.ExplainP99Ms,
			100*(res.ExplainP50Ms-res.P50Ms)/res.P50Ms)
		if expl.errors > 0 {
			return fmt.Errorf("explain pass: %d requests failed schema validation or scoring", expl.errors)
		}
	}

	if res.Errors > 0 {
		return fmt.Errorf("%d requests failed", res.Errors)
	}
	if opt.minQPS > 0 && res.QPS < opt.minQPS {
		return fmt.Errorf("sustained %.0f QPS is below the -min-qps %.0f floor", res.QPS, opt.minQPS)
	}
	if opt.minQPS > 0 && opt.explain > 0 && res.ExplainQPS < opt.minQPS {
		return fmt.Errorf("explain-on %.0f QPS is below the -min-qps %.0f floor", res.ExplainQPS, opt.minQPS)
	}
	if opt.maxP99 > 0 {
		if ceiling := float64(opt.maxP99.Nanoseconds()) / 1e6; res.P99Ms > ceiling {
			return fmt.Errorf("client p99 %.3fms exceeds the -max-p99 %v ceiling", res.P99Ms, opt.maxP99)
		}
		if ceiling := float64(opt.maxP99.Nanoseconds()) / 1e6; opt.explain > 0 && res.ExplainP99Ms > ceiling {
			return fmt.Errorf("explain-on p99 %.3fms exceeds the -max-p99 %v ceiling", res.ExplainP99Ms, opt.maxP99)
		}
	}
	return nil
}

// ms converts a duration to float milliseconds for reporting.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phase is one measured closed-loop pass: request counts plus the sorted
// client-side latencies of its successful requests.
type phase struct {
	requests int64
	errors   int64
	elapsed  time.Duration
	lats     []time.Duration
}

func (p *phase) qps() float64 { return float64(p.requests) / p.elapsed.Seconds() }

func (p *phase) toResult(opt options) result {
	return result{
		DurationSecs: p.elapsed.Seconds(),
		Requests:     p.requests,
		Errors:       p.errors,
		QPS:          p.qps(),
		RowsPerSec:   float64(p.requests) * float64(opt.rows) / p.elapsed.Seconds(),
		P50Ms:        ms(quantile(p.lats, 0.50)),
		P90Ms:        ms(quantile(p.lats, 0.90)),
		P99Ms:        ms(quantile(p.lats, 0.99)),
		P999Ms:       ms(quantile(p.lats, 0.999)),
		MaxMs:        ms(p.lats[len(p.lats)-1]),
	}
}

// measurePhase runs one warmup + measured closed-loop pass over the body
// pool, validating every response with check.
func measurePhase(client *http.Client, url string, bodies [][]byte, opt options, check func(*scoreDoc) bool) (*phase, error) {
	var (
		measuring atomic.Bool
		stop      atomic.Bool
		requests  atomic.Int64
		errorsN   atomic.Int64
		wg        sync.WaitGroup
	)
	lats := make([][]time.Duration, opt.concurrency)
	for w := 0; w < opt.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := lats[w][:0]
			i := w % len(bodies)
			for !stop.Load() {
				start := time.Now()
				ok := oneRequest(client, url, bodies[i], check)
				lat := time.Since(start)
				i++
				if i == len(bodies) {
					i = 0
				}
				if !measuring.Load() {
					continue
				}
				requests.Add(1)
				if ok {
					buf = append(buf, lat)
				} else {
					errorsN.Add(1)
				}
			}
			lats[w] = buf
		}(w)
	}

	time.Sleep(opt.warmup)
	measuring.Store(true)
	startT := time.Now()
	time.Sleep(opt.duration)
	elapsed := time.Since(startT)
	stop.Store(true)
	wg.Wait()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) == 0 {
		return nil, errors.New("no successful requests (is fracserve up?)")
	}
	return &phase{
		requests: requests.Load(),
		errors:   errorsN.Load(),
		elapsed:  elapsed,
		lats:     all,
	}, nil
}

// plainCheck validates a plain score response.
func plainCheck(rows int) func(*scoreDoc) bool {
	return func(doc *scoreDoc) bool {
		return len(doc.Scores) == rows && doc.ModelHash != ""
	}
}

// explainCheck validates an explained response against the attribution wire
// schema: one attribution list per row, at most k entries each, contributions
// finite and sorted descending, every entry naming a feature.
func explainCheck(rows, k int) func(*scoreDoc) bool {
	plain := plainCheck(rows)
	return func(doc *scoreDoc) bool {
		if !plain(doc) || len(doc.Explanations) != rows {
			return false
		}
		for _, attrs := range doc.Explanations {
			if len(attrs) == 0 || len(attrs) > k {
				return false
			}
			for j, a := range attrs {
				if a.Feature == "" || math.IsNaN(a.Contribution) || math.IsInf(a.Contribution, 0) {
					return false
				}
				if j > 0 && a.Contribution > attrs[j-1].Contribution {
					return false
				}
			}
		}
		return true
	}
}

// buildBodies pre-marshals the request-body pool, either replaying a dataset
// or synthesizing schema-conforming rows. explain > 0 adds an "explain": K
// field to every body so the same pool exercises the attribution path.
func buildBodies(target modelEntry, opt options, explain int) ([][]byte, error) {
	if opt.rowsFrom != "" {
		return fileBodies(target, opt, explain)
	}
	return synthBodies(target, opt, explain), nil
}

// scoreBody assembles one request-body map, with the explain field only when
// attributions are requested.
func scoreBody(model string, rows any, explain int) map[string]any {
	body := map[string]any{"model": model, "rows": rows}
	if explain > 0 {
		body["explain"] = explain
	}
	return body
}

// synthBodies pre-marshals a pool of score request bodies with
// schema-conforming synthetic rows.
func synthBodies(target modelEntry, opt options, explain int) [][]byte {
	rng := rand.New(rand.NewSource(opt.seed))
	const pool = 64
	bodies := make([][]byte, pool)
	for b := range bodies {
		rows := make([][]float64, opt.rows)
		for r := range rows {
			row := make([]float64, len(target.Schema))
			for j, f := range target.Schema {
				if f.Kind == "categorical" {
					row[j] = float64(rng.Intn(f.Arity))
				} else {
					row[j] = rng.NormFloat64() + opt.shift
				}
			}
			rows[r] = row
		}
		blob, err := json.Marshal(scoreBody(target.Name, rows, explain))
		if err != nil {
			panic(err) // finite floats always marshal
		}
		bodies[b] = blob
	}
	return bodies
}

// fileBodies pre-marshals bodies that replay the normal rows of a TSV
// dataset, cycling so every row appears. Missing values become JSON null
// (the wire spelling of NaN) and -shift is applied to real features only.
func fileBodies(target modelEntry, opt options, explain int) ([][]byte, error) {
	d, err := frac.ReadDatasetFile(opt.rowsFrom)
	if err != nil {
		return nil, err
	}
	if d.Anomalous != nil {
		var keep []int
		for i, a := range d.Anomalous {
			if !a {
				keep = append(keep, i)
			}
		}
		d = d.SelectSamples(keep)
	}
	if d.NumSamples() == 0 {
		return nil, fmt.Errorf("%s has no normal rows to replay", opt.rowsFrom)
	}
	if d.NumFeatures() != len(target.Schema) {
		return nil, fmt.Errorf("%s has %d features, model %q expects %d",
			opt.rowsFrom, d.NumFeatures(), target.Name, len(target.Schema))
	}
	n := d.NumSamples()
	numBodies := (n + opt.rows - 1) / opt.rows
	bodies := make([][]byte, numBodies)
	for b := range bodies {
		rows := make([][]any, opt.rows)
		for r := range rows {
			s := d.Sample((b*opt.rows + r) % n)
			row := make([]any, len(s))
			for j, v := range s {
				if math.IsNaN(v) {
					row[j] = nil
					continue
				}
				if target.Schema[j].Kind != "categorical" {
					v += opt.shift
				}
				row[j] = v
			}
			rows[r] = row
		}
		blob, err := json.Marshal(scoreBody(target.Name, rows, explain))
		if err != nil {
			return nil, err
		}
		bodies[b] = blob
	}
	return bodies, nil
}

// oneRequest performs one scoring round trip and validates the response with
// the phase's check.
func oneRequest(client *http.Client, url string, body []byte, check func(*scoreDoc) bool) bool {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	var doc scoreDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return false
	}
	return check(&doc)
}

// quantile returns the q-quantile of sorted latencies (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
