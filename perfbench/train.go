package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"frac"
	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/obs"
	"frac/internal/parallel"
	"frac/internal/resource"
)

// setupRepeats is how many times a traced run repeats a set-up step it
// reports the median of.
const setupRepeats = 3

// aucReplicates is how many replicates every train run makes, however slow
// the machine: the auc metric averages exactly these, so it depends on the
// seed alone.
const aucReplicates = 5

// makePool generates the workload's labelled sample pool from the seed,
// writes it as TSV in the work directory and parses it back, so the program
// sees only the generated file. It returns the parse time.
func (b *bench) makePool(trace string, parent int) (*frac.Dataset, time.Duration, error) {
	p, err := frac.ProfileByName(b.spec.Profile)
	if err != nil {
		return nil, 0, err
	}
	var d *frac.Dataset
	b.spans.timed(trace, "bench.generate", parent, func() { d, err = p.Generate(b.spec.Scale, b.seed) })
	if err != nil {
		return nil, 0, err
	}
	path := filepath.Join(b.work, b.spec.Profile+".tsv")
	if err := frac.WriteDatasetFile(path, d); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	pool, err := frac.ReadDatasetFile(path)
	end := time.Now()
	if err != nil {
		return nil, 0, err
	}
	b.spans.add(trace, "dataset.parse", parent, start, end)
	return pool, end.Sub(start), nil
}

// setupTrain sets the pool up spec.SetupRepeats times and returns the last pool
// with the median set-up and parse times.
func (b *bench) setupTrain() (pool *frac.Dataset, setup, parse time.Duration, err error) {
	var setups, parses []float64
	for i := 0; i < b.spec.SetupRepeats; i++ {
		trace := fmt.Sprintf("setup-%d", i)
		start := time.Now()
		root := b.spans.add(trace, "bench.setup", 0, start, start) // end fixed below
		var pt time.Duration
		pool, pt, err = b.makePool(trace, root)
		if err != nil {
			return nil, 0, 0, err
		}
		b.spans.setEnd(root, time.Now())
		setups = append(setups, time.Since(start).Seconds())
		parses = append(parses, pt.Seconds())
	}
	return pool, seconds(median(setups)), seconds(median(parses)), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// replicate returns the i-th 2/3-normal split of the pool, drawn from the
// seed.
func (b *bench) replicate(pool *frac.Dataset, i int) (frac.Replicate, error) {
	reps, err := frac.MakeReplicates(pool, 1, b.spec.TrainFrac, frac.NewRNG(b.seed).StreamAt("split", uint64(i)))
	if err != nil {
		return frac.Replicate{}, err
	}
	return reps[0], nil
}

// checkScores counts one replicate and checks its scores: every score
// passes core.SanityCheckScores and the AUC is a number in [0, 1].
func (b *bench) checkScores(what string, scores []float64, anomalous []bool) float64 {
	if err := core.SanityCheckScores(scores); err != nil {
		b.miss("%s: %v", what, err)
		return 0
	}
	auc := frac.AUC(scores, anomalous)
	if !(auc >= 0 && auc <= 1) {
		b.miss("%s: AUC %v", what, auc)
		return 0
	}
	return auc
}

// runTrain is the untraced train workload: replicates of Train then
// ScoreDataset with Config{} defaults until the run's time is spent.
func (b *bench) runTrain() error {
	pool, setup, _, err := b.setupTrain()
	if err != nil {
		return err
	}
	var times, aucs, rss []float64
	var busy time.Duration
	begin := time.Now()
	for i := 0; i < aucReplicates || time.Since(begin)+seconds(median(times)) <= b.seconds; i++ {
		rep, err := b.replicate(pool, i)
		if err != nil {
			return err
		}
		b.attempt(1)
		// Each replicate starts from a heap handed back to the OS, so its
		// peak resident set is its own and not the garbage of the last.
		debug.FreeOSMemory()
		sampler := startRSSSampler()
		start := time.Now()
		model, err := frac.Train(rep.Train, frac.FullTerms(rep.Train.NumFeatures()), frac.Config{Seed: b.seed})
		var ss *core.ScoreSet
		if err == nil {
			ss, err = model.ScoreDataset(rep.Test)
		}
		elapsed := time.Since(start)
		peak := sampler.stop()
		if err != nil {
			b.miss("replicate %d: %v", i, err)
			continue
		}
		busy += elapsed
		times = append(times, elapsed.Seconds())
		rss = append(rss, peak)
		aucs = append(aucs, b.checkScores(fmt.Sprintf("replicate %d", i), ss.Totals(), rep.Test.Anomalous))
	}
	auc := mean(aucs[:min(aucReplicates, len(aucs))])
	fmt.Printf("# %d replicates: median %.4fs, mean AUC of the first %d %.4f\n",
		len(times), median(times), aucReplicates, auc)
	b.set("setup_s", "s", setup.Seconds())
	b.set("latency_ms.p50", "ms", 1e3*median(times))
	b.set("throughput_per_s", "1/s", float64(len(times))/busy.Seconds())
	b.set("auc", "ratio", auc)
	// Garbage-collector timing only ever adds to a replicate's peak, so the
	// least disturbed replicate reads the footprint.
	b.set("peak_rss_mb", "MB", slices.Min(rss))
	b.set("ok_frac", "ratio", float64(b.attempted-b.failed)/float64(b.attempted))
	return nil
}

// rssSampler tracks the process's largest resident set while it runs, read
// from /proc/self/statm every rssEvery.
type rssSampler struct {
	quit chan struct{}
	peak chan float64 // MiB
}

const rssEvery = 2 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		var peak float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := residentMB(); err == nil {
				peak = max(peak, mb)
			}
			select {
			case <-s.quit:
				s.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak in MiB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	return <-s.peak
}

func residentMB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(blob))
	if len(fields) < 2 {
		return 0, fmt.Errorf("statm %q", blob)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// learnerCounts are the fits the timing wrappers around Learners.Cat and
// Learners.Real saw.
type learnerCounts struct {
	treeFits, treeNs, gatherFits atomic.Int64
}

// timedLearners wraps the default learners so every tree fit and every SVR
// fit on the gather path is counted, timed and recorded as a span under the
// term it belongs to. The masked SVR path does not call Learners.Real, so a
// masked term records no svm span. MaskedSVR still describes the wrapped
// Real learner exactly, so routing is unchanged.
func timedLearners(s *spanStore, trace string, c *learnerCounts) frac.Learners {
	l := frac.PaperLearners()
	real, cat := l.Real, l.Cat
	l.Real = func(x *linalg.Matrix, inputs dataset.Schema, y []float64, seed uint64) core.RealPredictor {
		start := time.Now()
		p := real(x, inputs, y, seed)
		end := time.Now()
		c.gatherFits.Add(1)
		s.addUnder(trace, "svm.gather_fit", "core.term_train", start, end)
		return p
	}
	l.Cat = func(x *linalg.Matrix, inputs dataset.Schema, y []int, arity int, seed uint64) core.CatPredictor {
		start := time.Now()
		p := cat(x, inputs, y, arity, seed)
		end := time.Now()
		c.treeFits.Add(1)
		c.treeNs.Add(int64(end.Sub(start)))
		s.addUnder(trace, "tree.fit", "core.term_train", start, end)
		return p
	}
	return l
}

// tracedReplicate is what one traced replicate reports.
type tracedReplicate struct {
	wall, train, score       time.Duration
	termP50, termMax         float64 // ms
	busyFrac, waitMs         float64
	masked, gathered         int64
	cacheMB, peakMB, modelMB float64
	treeFits, gatherFits     int64
	treeFitS                 float64
}

// runTracedReplicate runs replicate i with the recorder, tracker, an
// instrumented pool and the timing learners attached, recording spans under
// trace rep-i.
func (b *bench) runTracedReplicate(rep frac.Replicate, i int) (tracedReplicate, error) {
	var out tracedReplicate
	trace := fmt.Sprintf("rep-%d", i)
	recStart := time.Now()
	rec := frac.NewRecorder()
	rec.SetSampleEvery(1)
	rec.EnableSpanLog(0)
	tracker := resource.NewTracker()
	var counts learnerCounts
	cfg := frac.Config{
		Seed:     b.seed,
		Obs:      rec,
		Tracker:  tracker,
		Limit:    parallel.NewLimit(0).Instrument(rec),
		Learners: timedLearners(b.spans, trace, &counts),
	}
	start := time.Now()
	root := b.spans.add(trace, "bench.replicate", 0, start, start)
	var model *frac.Model
	var err error
	trainID := b.spans.timed(trace, "core.train", root, func() {
		model, err = frac.Train(rep.Train, frac.FullTerms(rep.Train.NumFeatures()), cfg)
	})
	if err != nil {
		return out, fmt.Errorf("train: %w", err)
	}
	out.train = b.spans.duration(trainID)
	out.modelMB = float64(model.Bytes()) / (1 << 20)
	var ss *core.ScoreSet
	scoreID := b.spans.timed(trace, "core.score", root, func() { ss, err = model.ScoreDataset(rep.Test) })
	if err != nil {
		return out, fmt.Errorf("score: %w", err)
	}
	out.score = b.spans.duration(scoreID)
	b.spans.setEnd(root, time.Now())
	out.wall = b.spans.duration(root)
	b.checkScores(fmt.Sprintf("traced replicate %d", i), ss.Totals(), rep.Test.Anomalous)

	termMs, err := importTermSpans(b.spans, rec, recStart, trace, trainID, scoreID)
	if err != nil {
		return out, err
	}
	var termSum float64
	for _, ms := range termMs {
		termSum += ms
	}
	out.termP50 = median(termMs)
	for _, ms := range termMs {
		out.termMax = max(out.termMax, ms)
	}
	workers := runtime.GOMAXPROCS(0)
	out.busyFrac = termSum / 1e3 / (float64(workers) * out.train.Seconds())
	snap := rec.Snapshot()
	if snap.Pool != nil {
		out.waitMs = float64(snap.Pool.QueueWait.TotalNs) / 1e6
	}
	out.masked = rec.Count(obs.CounterTermsMasked)
	out.gathered = rec.Count(obs.CounterTermsGathered)
	out.cacheMB = float64(rec.Count(obs.CounterDesignCacheBytes)) / (1 << 20)
	out.peakMB = float64(tracker.Stop().PeakBytes) / (1 << 20)
	out.treeFits = counts.treeFits.Load()
	out.treeFitS = float64(counts.treeNs.Load()) / 1e9
	out.gatherFits = counts.gatherFits.Load()
	return out, nil
}

// importTermSpans copies the recorder's per-term spans into the store under
// the train and score spans and returns the term-train durations in ms.
func importTermSpans(s *spanStore, rec *frac.Recorder, recStart time.Time, trace string, trainID, scoreID int) ([]float64, error) {
	var buf bytes.Buffer
	if err := rec.WriteTraceEvents(&buf, "perfbench"); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	var termMs []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		start := recStart.Add(time.Duration(ev.Ts * 1e3))
		end := start.Add(time.Duration(ev.Dur * 1e3))
		switch ev.Name {
		case "term_train":
			s.add(trace, "core.term_train", trainID, start, end)
			termMs = append(termMs, ev.Dur/1e3)
		case "term_score":
			s.add(trace, "core.term_score", scoreID, start, end)
		}
	}
	if len(termMs) == 0 {
		return nil, fmt.Errorf("recorder logged no term_train spans")
	}
	return termMs, nil
}

// runTrainTraced is the traced train workload. It alternates an untraced
// and a traced run of the same replicate, so trace.overhead_frac compares
// like with like, and reports medians over the traced replicates.
func (b *bench) runTrainTraced() error {
	pool, _, parse, err := b.setupTrain()
	if err != nil {
		return err
	}
	var plain []float64
	var traced []tracedReplicate
	begin := time.Now()
	for i := 0; len(traced) < 2 || time.Since(begin)+2*seconds(median(plain)) <= b.seconds; i++ {
		rep, err := b.replicate(pool, i)
		if err != nil {
			return err
		}
		b.attempt(2)
		start := time.Now()
		model, err := frac.Train(rep.Train, frac.FullTerms(rep.Train.NumFeatures()), frac.Config{Seed: b.seed})
		if err != nil {
			return fmt.Errorf("replicate %d: %w", i, err)
		}
		ss, err := model.ScoreDataset(rep.Test)
		if err != nil {
			return fmt.Errorf("replicate %d: %w", i, err)
		}
		plain = append(plain, time.Since(start).Seconds())
		b.checkScores(fmt.Sprintf("replicate %d", i), ss.Totals(), rep.Test.Anomalous)
		tr, err := b.runTracedReplicate(rep, i)
		if err != nil {
			return fmt.Errorf("traced replicate %d: %w", i, err)
		}
		traced = append(traced, tr)
	}
	med := func(f func(tracedReplicate) float64) float64 {
		xs := make([]float64, len(traced))
		for i, t := range traced {
			xs[i] = f(t)
		}
		return median(xs)
	}
	wall := med(func(t tracedReplicate) float64 { return t.wall.Seconds() })
	fmt.Printf("# %d replicate pairs: untraced median %.4fs, traced median %.4fs\n", len(traced), median(plain), wall)
	b.set("dataset.parse_s", "s", parse.Seconds())
	b.set("core.train_s", "s", med(func(t tracedReplicate) float64 { return t.train.Seconds() }))
	b.set("core.score_s", "s", med(func(t tracedReplicate) float64 { return t.score.Seconds() }))
	b.set("core.term_train_ms.p50", "ms", med(func(t tracedReplicate) float64 { return t.termP50 }))
	b.set("core.term_train_ms.max", "ms", med(func(t tracedReplicate) float64 { return t.termMax }))
	b.set("core.terms_masked", "count", med(func(t tracedReplicate) float64 { return float64(t.masked) }))
	b.set("core.terms_gathered", "count", med(func(t tracedReplicate) float64 { return float64(t.gathered) }))
	b.set("core.design_cache_mb", "MB", med(func(t tracedReplicate) float64 { return t.cacheMB }))
	b.set("core.analytic_peak_mb", "MB", med(func(t tracedReplicate) float64 { return t.peakMB }))
	b.set("core.model_mb", "MB", med(func(t tracedReplicate) float64 { return t.modelMB }))
	b.set("parallel.busy_frac", "ratio", med(func(t tracedReplicate) float64 { return t.busyFrac }))
	b.set("parallel.wait_ms", "ms", med(func(t tracedReplicate) float64 { return t.waitMs }))
	b.set("tree.fits", "count", med(func(t tracedReplicate) float64 { return float64(t.treeFits) }))
	b.set("tree.fit_s", "s", med(func(t tracedReplicate) float64 { return t.treeFitS }))
	b.set("svm.gather_fits", "count", med(func(t tracedReplicate) float64 { return float64(t.gatherFits) }))
	b.set("trace.overhead_frac", "ratio", wall/median(plain)-1)
	b.setKernelMetrics(pool.NumFeatures() - 1)
	return nil
}
