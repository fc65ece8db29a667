package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"frac/internal/dataset"
	"frac/internal/drift"
	"frac/internal/linalg"
	"frac/internal/obs"
	"frac/internal/parallel"
	"frac/internal/resource"
	"frac/internal/rng"
	"frac/internal/stats"
	"frac/internal/tree"
)

// Config parameterizes FRaC training and scoring.
type Config struct {
	// Learners supplies the supervised models; the zero value selects
	// PaperLearners (linear SVR for continuous, trees for categorical).
	Learners Learners
	// CVFolds is the error-model cross-validation fold count. <= 1 selects 3.
	CVFolds int
	// KDEError switches the continuous error model from Gaussian to KDE.
	KDEError bool
	// Entropy selects the continuous entropy estimator for NS normalization.
	Entropy EntropyEstimator
	// Workers bounds training parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Seed makes the run deterministic (CV fold shuffles, learner
	// permutations).
	Seed uint64
	// Tracker, when non-nil, accrues the run's CPU time and analytic memory.
	Tracker *resource.Tracker
	// Limit, when non-nil, is a shared bounded compute pool: every unit of
	// term-level work across all runs sharing the Limit holds one of its
	// tokens, so concurrent ensemble members or variant-sweep cells cannot
	// oversubscribe the machine. Nil means each run bounds itself by Workers
	// alone.
	Limit *parallel.Limit
	// Obs, when non-nil, receives the run's telemetry: phase spans, sampled
	// per-term spans, term counters, and progress accounting. Nil (the
	// default) disables telemetry with zero overhead and zero allocations —
	// the recorder only observes, so enabling it never changes scores.
	Obs *obs.Recorder
}

// minObserved is the fewest observed training values a target needs for a
// learned predictor; with fewer, its term falls back to the marginal
// predictor.
const minObserved = 6

func (c Config) withDefaults() Config {
	if c.Learners.isZero() {
		c.Learners = PaperLearners()
	}
	if c.CVFolds <= 1 {
		c.CVFolds = 3
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// termModel is one trained NS summand.
type termModel struct {
	term  Term
	isCat bool
	arity int

	// real predicts a real target, except on a Gram-routed term, whose
	// predictor is dual (and real nil): it reads the model's basis.
	real    RealPredictor
	dual    *dualReal
	realErr realErrorModel

	cat    CatPredictor
	catErr *stats.Confusion

	entropy float64
}

// bytes reports the retained analytic footprint of the term.
func (tm *termModel) bytes() int64 {
	var b int64 = 64
	if tm.isCat {
		if tm.cat != nil {
			b += tm.cat.Bytes()
		}
		if tm.catErr != nil {
			b += int64(len(tm.catErr.Counts)) * 8
		}
	} else {
		if tm.real != nil {
			b += tm.real.Bytes()
		}
		if tm.dual != nil {
			b += tm.dual.bytes()
		}
		b += tm.realErr.Bytes()
	}
	b += int64(len(tm.term.Inputs)) * 8
	return b
}

// Model is a trained FRaC detector: every term's predictor, error model,
// and entropy, ready to score new samples against the training population.
type Model struct {
	cfg    Config
	schema dataset.Schema
	terms  []termModel
	// basis is what the Gram-routed terms predict through; nil when the
	// model has none.
	basis *dualBasis

	// driftRef is the healthy served-NS distribution captured at train time
	// (nil when never captured), persisted with the model so serving can
	// monitor for drift without warmup. See CaptureDriftReference.
	driftRef *drift.Reference
}

// Train fits a FRaC model over the given term wiring. The training set must
// be the all-normal population; terms index into its features.
func Train(train *dataset.Dataset, terms []Term, cfg Config) (*Model, error) {
	return TrainCtx(context.Background(), train, terms, cfg)
}

// termStreams derives one deterministic RNG stream per term, keyed by the
// term's *identity* — its original feature index plus a replica counter for
// wirings that carry several predictors per feature — rather than its slice
// position. Identity keying is what makes training results invariant under
// reorderings of the term list and lets concurrent workers share nothing:
// each stream is derived from the immutable root seed, never from consumed
// generator state.
func termStreams(root *rng.Source, terms []Term) []*rng.Source {
	streams := make([]*rng.Source, len(terms))
	replica := make(map[int]uint64, len(terms))
	for i, t := range terms {
		r := replica[t.Orig]
		replica[t.Orig] = r + 1
		streams[i] = root.StreamAt("term", uint64(t.Orig), r)
	}
	return streams
}

// TrainCtx is Train with cooperative cancellation: ctx is checked between
// term trainings on every worker, a cancelled context aborts the run with
// ctx.Err(), and worker panics come back as wrapped *parallel.PanicError
// values instead of killing the process. Work in flight when the context is
// cancelled finishes its current term first. The training set is validated
// first: a categorical cell that is not a label of its feature is an error,
// since the learners index count tables by it, and so is a term with inputs
// but no learner for its target's kind.
func TrainCtx(ctx context.Context, train *dataset.Dataset, terms []Term, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if train.NumSamples() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("core: training set: %w", err)
	}
	plan, err := planTerms(train, terms, cfg)
	if err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, schema: train.Schema, terms: make([]termModel, len(terms))}
	streams := termStreams(rng.New(cfg.Seed), terms)
	phase := cfg.Obs.Start(obs.PhaseTrain)
	defer phase.End()
	var (
		gram   *gramShared
		design *tree.Design
	)
	if g := firstOn(plan, routeGram); g >= 0 {
		if gram, err = buildShared(ctx, cfg, "train", func() (*gramShared, error) { return buildGram(ctx, train, plan[g].fits) }); err != nil {
			return nil, err
		}
		m.basis = gram.basis
		cfg.Tracker.Alloc(gram.bytes())
		defer cfg.Tracker.Release(gram.bytes())
		cfg.Tracker.Alloc(m.basis.bytes())
	}
	if firstOn(plan, routeTree) >= 0 && cfg.Learners.gather == nil {
		if design, err = buildShared(ctx, cfg, "train", func() (*tree.Design, error) { return tree.NewDesign(train.X, train.Schema), nil }); err != nil {
			m.release()
			return nil, err
		}
		reserved := design.Bytes() + treeReservation(train, design, terms, plan, cfg)
		cfg.Tracker.Alloc(reserved)
		defer cfg.Tracker.Release(reserved)
	}
	if cfg.Tracker != nil {
		scratch := svrReservation(terms, plan, cfg.Workers)
		cfg.Tracker.Alloc(scratch)
		defer cfg.Tracker.Release(scratch)
	}
	cfg.Obs.AddPlanned(int64(len(terms)))
	err = parallel.ForWorkersWithStateErr(parallel.WithPhaseLabel(ctx, "train"),
		len(terms), cfg.Workers, cfg.Limit,
		func(w int) *trainScratch { return &trainScratch{worker: w, gram: gram, design: design} },
		func(ti int, sc *trainScratch) error {
			var tm termModel
			var err error
			span := cfg.Obs.StartSampledWorker(obs.PhaseTermTrain, sc.worker)
			cfg.Tracker.TimeTask(func() { tm, err = trainTerm(train, terms[ti], plan[ti], cfg, streams[ti], sc) })
			span.End()
			if err != nil {
				return fmt.Errorf("term %d: %w", ti, err)
			}
			m.terms[ti] = tm
			cfg.Tracker.Alloc(tm.bytes())
			cfg.Obs.Add(obs.CounterTermsTrained, 1)
			return nil
		})
	if err != nil {
		m.release()
		return nil, err
	}
	return m, nil
}

// buildShared runs the build of a Train's or a scoring pass's shared state
// as one unit of work of the phase named by phase: it holds a token of the
// shared pool, its CPU time accrues to the tracker, it does not start once
// ctx is done, and a panic comes back as an error.
func buildShared[T any](ctx context.Context, cfg Config, phase string, build func() (T, error)) (T, error) {
	var out T
	err := parallel.ForWorkersWithStateErr(parallel.WithPhaseLabel(ctx, phase), 1, 1, cfg.Limit,
		func(int) struct{} { return struct{}{} },
		func(int, struct{}) error {
			var err error
			cfg.Tracker.TimeTask(func() { out, err = build() })
			return err
		})
	return out, err
}

// release returns the model's tracked bytes to the tracker. Idempotent per
// model instance.
func (m *Model) release() {
	if m.cfg.Tracker == nil || m.terms == nil {
		return
	}
	for i := range m.terms {
		if tm := &m.terms[i]; tm.real != nil || tm.dual != nil || tm.cat != nil {
			m.cfg.Tracker.Release(tm.bytes())
		}
	}
	if m.basis != nil {
		m.cfg.Tracker.Release(m.basis.bytes())
	}
	m.terms = nil
}

// Bytes reports the model's retained analytic footprint.
func (m *Model) Bytes() int64 {
	var b int64
	for i := range m.terms {
		b += m.terms[i].bytes()
	}
	if m.basis != nil {
		b += m.basis.bytes()
	}
	if m.driftRef != nil {
		b += m.driftRef.Bytes()
	}
	return b
}

// NumTerms reports the number of NS summands.
func (m *Model) NumTerms() int { return len(m.terms) }

// trainScratch is the reusable per-worker state of Train: one worker
// processes many terms and reuses these buffers for every term's targets
// and fits, so training one term allocates only what the trained model
// retains. Nothing stored here may outlive a term (see DESIGN.md
// "Performance notes").
type trainScratch struct {
	// worker is the owning worker's index, carried only for span attribution
	// (exported trace tracks show which worker trained each sampled term).
	worker int

	rows []int // observed row indices for the current target
	yF   []float64
	yI   []int

	// residuals accumulates the cross-validated residuals of one real term;
	// fitRealError's models copy what they retain (the KDE clones its
	// sample), so the buffer is reusable across terms.
	residuals []float64

	// svr is the in-core SVR trainer's state (design buffer, column
	// statistics, solver workspace).
	svr svrScratch

	// gram is the Train's shared Gram-route state, read-only and the same
	// for every worker; nil when no term takes the route, and outside
	// TrainCtx.
	gram *gramShared

	// design is the Train's shared tree design, read-only and the same for
	// every worker; nil when no term takes the tree route, and outside
	// TrainCtx. tree is the tree route's fit scratch, labels and
	// targets the current target by design row, and fitRows a fit's
	// design rows.
	design  *tree.Design
	tree    tree.Scratch
	labels  []int
	targets []float64
	fitRows []int
}

// cvFit is one fit of a fit schedule, over positions into a target's
// observed rows: order lists the nFit training positions in ascending
// order, then the held-out positions. fold is the CV fold held out, or −1
// for the final fit, which trains on every position and holds none out;
// the fit's seed is the term's src.Seed()^(fold+1).
type cvFit struct {
	fold  int
	order []int
	nFit  int
}

// fitSchedule is a Train's one draw of CV folds (DESIGN.md §10): the fits
// of every learned term with m observed rows, one per fold of
// KFold(m, CVFolds) on the Train seed's "folds" stream keyed by m, then
// the final fit. It depends only on the seed and m, so every SVR and tree
// term with m observed rows trains on the same fits, and the Gram route
// builds each fit's Gram once for all of them. A learned term has at
// least minObserved rows and KFold draws 2 to m folds, so no fit's
// training or held-out side is empty.
func fitSchedule(cfg Config, m int) []cvFit {
	folds := dataset.KFold(m, cfg.CVFolds, rng.New(cfg.Seed).StreamAt("folds", uint64(m)))
	foldOf := make([]int, m)
	for fi, fold := range folds {
		for _, p := range fold {
			foldOf[p] = fi
		}
	}
	pos := make([]int, (len(folds)+1)*m)
	fits := make([]cvFit, len(folds)+1)
	for fi, fold := range folds {
		order := pos[fi*m : fi*m : (fi+1)*m]
		for p := range foldOf {
			if foldOf[p] != fi {
				order = append(order, p)
			}
		}
		fits[fi] = cvFit{fold: fi, order: append(order, fold...), nFit: m - len(fold)}
	}
	final := pos[len(folds)*m:]
	for p := range final {
		final[p] = p
	}
	fits[len(folds)] = cvFit{fold: -1, order: final, nFit: m}
	return fits
}

// route is how a term trains (DESIGN.md §10): as its target's marginal
// distribution, as trees on the Train's shared design (treeterm.go), or as
// an SVR over its own inputs (primal) or on the Train's shared Grams
// (svrterm.go).
type route uint8

const (
	routeMarginal route = iota
	routeTree
	routePrimal
	routeGram
)

// termPlan is one term's route, its target's count m of observed training
// rows and, unless the term is marginal, m's fit schedule.
type termPlan struct {
	route route
	m     int
	fits  []cvFit
}

// firstOn returns the index of plan's first term on route r, or −1.
func firstOn(plan []termPlan, r route) int {
	return slices.IndexFunc(plan, func(p termPlan) bool { return p.route == r })
}

// planTerms checks every term against train and learners l (cfg.Learners)
// and picks its route, in one pass before any worker starts, and gives each
// learned term the fit schedule of its observed-row count, drawn once per
// count. A term whose target has fewer than minObserved observed rows, or
// that has no inputs, is marginal. Otherwise l.Tree trains a categorical
// target, and a real one too when l.SVR is nil, and l.SVR trains the rest:
// on the Gram route when the training set has fewer rows than the term has
// inputs (n < f−1), the target is observed on every row and the inputs are
// all the other features, and on the primal route otherwise. The rule
// reads only the input's shape; there is no knob. A term with inputs but
// no learner for its target's kind is an error, whatever its observed rows.
func planTerms(train *dataset.Dataset, terms []Term, cfg Config) ([]termPlan, error) {
	l, n, f := cfg.Learners, train.NumSamples(), train.NumFeatures()
	observed := make([]int, f)
	for i := 0; i < n; i++ {
		for c, v := range train.X.Row(i) {
			if !dataset.IsMissing(v) {
				observed[c]++
			}
		}
	}
	plan := make([]termPlan, len(terms))
	schedules := map[int][]cvFit{}
	for i, t := range terms {
		if err := t.Validate(f); err != nil {
			return nil, fmt.Errorf("term %d: %w", i, err)
		}
		feat := train.Schema[t.Target]
		cat, svrOnly := feat.Kind == dataset.Categorical, len(t.Inputs) > 0 && l.Tree == nil
		p := termPlan{m: observed[t.Target]}
		switch {
		case svrOnly && cat:
			return nil, fmt.Errorf("core: categorical feature %d (%q) has no learner: Learners.Tree is nil", t.Target, feat.Name)
		case svrOnly && l.SVR == nil:
			return nil, fmt.Errorf("core: real feature %d (%q) has no learner: Learners.SVR and Learners.Tree are nil", t.Target, feat.Name)
		case len(t.Inputs) == 0 || p.m < minObserved:
			p.route = routeMarginal
		case l.Tree != nil && (cat || l.SVR == nil):
			p.route = routeTree
		case p.m == n && n < f-1 && allButTarget(t, f):
			p.route = routeGram
		default:
			p.route = routePrimal
		}
		if p.route != routeMarginal {
			if p.fits = schedules[p.m]; p.fits == nil {
				p.fits = fitSchedule(cfg, p.m)
				schedules[p.m] = p.fits
			}
		}
		plan[i] = p
	}
	return plan, nil
}

// trainTerm fits one NS summand on p, planTerms's route and fit schedule for
// it, using the worker's scratch buffers. The tree and Gram routes read the
// Train's shared state (sc.design, sc.gram), which TrainCtx provides;
// without it the term is an error. A real target's error model is fit here,
// once, from the held-out residuals its route leaves in sc.residuals; the
// test-only gather hook returns its term whole.
func trainTerm(train *dataset.Dataset, term Term, p termPlan, cfg Config, src *rng.Source, sc *trainScratch) (termModel, error) {
	feat := train.Schema[term.Target]
	tm := termModel{term: term, isCat: feat.Kind == dataset.Categorical, arity: feat.Arity}

	// Observed training rows for this target.
	rows := sc.rows[:0]
	for i := 0; i < train.NumSamples(); i++ {
		if !dataset.IsMissing(train.X.At(i, term.Target)) {
			rows = append(rows, i)
		}
	}
	sc.rows = rows
	if tm.isCat {
		sc.yI = slices.Grow(sc.yI[:0], len(rows))
		for _, r := range rows {
			sc.yI = append(sc.yI, int(train.X.At(r, term.Target)))
		}
		tm.entropy = stats.ShannonEntropy(sc.yI, feat.Arity)
	} else {
		sc.yF = slices.Grow(sc.yF[:0], len(rows))
		for _, r := range rows {
			sc.yF = append(sc.yF, train.X.At(r, term.Target))
		}
		tm.entropy = continuousEntropy(sc.yF, cfg.Entropy)
	}
	switch p.route {
	case routeMarginal:
		trainMarginalTerm(&tm, sc)
	case routeTree:
		if cfg.Learners.gather != nil {
			return cfg.Learners.gather(tm, train, term, rows, p.fits, cfg, src, sc), nil
		}
		if sc.design == nil {
			return tm, fmt.Errorf("core: feature %d (%q) trains as a tree, but the Train has no shared design", term.Target, feat.Name)
		}
		cfg.Obs.Add(obs.CounterTermsTree, 1)
		trainTreeTerm(&tm, train, term, rows, p.fits, cfg, sc)
	case routePrimal:
		cfg.Obs.Add(obs.CounterTermsMasked, 1)
		trainSVRTerm(&tm, train, term, rows, sc.yF, p.fits, cfg, src, sc)
	case routeGram:
		if sc.gram == nil {
			return tm, fmt.Errorf("core: feature %d (%q) takes the Gram route, but the Train has no shared Gram", term.Target, feat.Name)
		}
		cfg.Obs.Add(obs.CounterTermsMasked, 1)
		cfg.Obs.Add(obs.CounterTermsGram, 1)
		trainGramTerm(&tm, train, term, sc.yF, cfg, src, sc)
	}
	if !tm.isCat {
		tm.realErr = fitRealError(sc.residuals, cfg.KDEError)
	}
	return tm, nil
}

// trainMarginalTerm fits the fallback of a term with no inputs or too few
// observed targets (sc.yI or sc.yF): the target's marginal distribution,
// with a real target's deviations from its mean left in sc.residuals.
func trainMarginalTerm(tm *termModel, sc *trainScratch) {
	if tm.isCat {
		c := marginalCatPredictor(sc.yI, tm.arity)
		conf := stats.NewConfusion(tm.arity)
		for _, v := range sc.yI {
			conf.Add(v, c.label)
		}
		tm.cat, tm.catErr = c, conf
		return
	}
	tm.real = marginalRealPredictor(sc.yF)
	resid := sc.residuals[:0]
	mean := stats.Mean(sc.yF)
	for _, v := range sc.yF {
		resid = append(resid, v-mean)
	}
	sc.residuals = resid
}

// scoreCat converts an observed categorical value and its prediction into
// the term's NS contribution.
func (tm *termModel) scoreCat(v float64, pred int) float64 {
	label := int(v)
	if float64(label) != v || label < 0 || label >= tm.arity {
		// A category never declared in the schema is maximally
		// surprising: use the least likely class under this prediction.
		worst := 0.0
		for c := 0; c < tm.arity; c++ {
			if s := tm.catErr.Surprisal(c, pred); s > worst {
				worst = s
			}
		}
		return worst - tm.entropy
	}
	return tm.catErr.Surprisal(label, pred) - tm.entropy
}

// scoreReal converts an observed continuous value and its prediction into
// the term's NS contribution.
func (tm *termModel) scoreReal(v, pred float64) float64 {
	return tm.realErr.Surprisal(v-pred) - tm.entropy
}

// ScoreSet holds per-term NS contributions for a scored data set.
type ScoreSet struct {
	Terms []Term
	// PerTerm is terms x samples: PerTerm.At(t, s) is term t's NS
	// contribution for sample s.
	PerTerm *linalg.Matrix
}

// Totals sums term contributions into one NS score per sample.
func (s *ScoreSet) Totals() []float64 {
	out := make([]float64, s.PerTerm.Cols)
	for t := 0; t < s.PerTerm.Rows; t++ {
		row := s.PerTerm.Row(t)
		for i, v := range row {
			out[i] += v
		}
	}
	return out
}

// scoreWorkspace is the reusable per-worker state of ScoreDataset: the
// batch prediction outputs, shared by every term a worker scores.
// Predictors read each term's inputs from the scored rows themselves, so
// nothing is gathered.
type scoreWorkspace struct {
	// worker is the owning worker's index, for span attribution only.
	worker int

	preds  []float64
	labels []int
}

// scoreTermBatch scores every test sample against term ti into row using the
// batch prediction path. k is the rows' basis projection
// (dualBasis.project), nil when the model has no basis. predCap, when non-nil, receives the term's raw
// prediction for every row (the tree label as a float64 for categorical
// terms) — including rows whose target is missing, where the contribution is
// pinned to 0 but the prediction is still well defined. Capturing never
// changes the contributions.
func (m *Model) scoreTermBatch(ti int, test *dataset.Dataset, k *linalg.Matrix, row []float64, ws *scoreWorkspace, predCap []float64) {
	tm := &m.terms[ti]
	n := test.NumSamples()
	if tm.isCat {
		if cap(ws.labels) < n {
			ws.labels = make([]int, n)
		}
		labels := ws.labels[:n]
		tm.cat.PredictLabelBatch(test.X, labels)
		for s := 0; s < n; s++ {
			if v := test.X.At(s, tm.term.Target); !dataset.IsMissing(v) {
				row[s] = tm.scoreCat(v, labels[s])
			} else {
				row[s] = 0
			}
		}
		if predCap != nil {
			for s := 0; s < n; s++ {
				predCap[s] = float64(labels[s])
			}
		}
		return
	}
	if cap(ws.preds) < n {
		ws.preds = make([]float64, n)
	}
	preds := ws.preds[:n]
	if tm.dual != nil {
		tm.dual.predictBatch(test.X, k, m.basis, tm.term.Target, preds)
	} else {
		tm.real.PredictBatch(test.X, preds)
	}
	for s := 0; s < n; s++ {
		if v := test.X.At(s, tm.term.Target); !dataset.IsMissing(v) {
			row[s] = tm.scoreReal(v, preds[s])
		} else {
			row[s] = 0
		}
	}
	if predCap != nil {
		copy(predCap, preds)
	}
}

// ScoreDataset scores every sample of test, in parallel over terms, and
// reports the cost into the model's tracker. Each term runs sample-major
// through the batch prediction path, reading its inputs from test's rows,
// with the prediction buffers reused per worker.
// When the model has a basis, every row is projected onto it once first,
// and the Gram-routed terms read the projection.
func (m *Model) ScoreDataset(test *dataset.Dataset) (*ScoreSet, error) {
	return m.ScoreDatasetCtx(context.Background(), test)
}

// ScoreDatasetCtx is ScoreDataset with cooperative cancellation, checked
// between per-term scoring passes on every worker.
func (m *Model) ScoreDatasetCtx(ctx context.Context, test *dataset.Dataset) (*ScoreSet, error) {
	if test.NumFeatures() != len(m.schema) {
		return nil, fmt.Errorf("core: test set has %d features, model expects %d", test.NumFeatures(), len(m.schema))
	}
	ss := &ScoreSet{PerTerm: linalg.NewMatrix(len(m.terms), test.NumSamples())}
	ss.Terms = make([]Term, len(m.terms))
	for i := range m.terms {
		ss.Terms[i] = m.terms[i].term
	}
	phase := m.cfg.Obs.Start(obs.PhaseScore)
	defer phase.End()
	var k *linalg.Matrix
	if m.basis != nil {
		var err error
		k, err = buildShared(ctx, m.cfg, "score", func() (*linalg.Matrix, error) {
			k := linalg.NewMatrix(test.NumSamples(), m.basis.z.Rows)
			m.basis.project(test.X, make([]float64, len(m.schema)), k)
			return k, nil
		})
		if err != nil {
			return nil, err
		}
	}
	m.cfg.Obs.AddPlanned(int64(len(m.terms)))
	err := parallel.ForWorkersWithStateErr(parallel.WithPhaseLabel(ctx, "score"),
		len(m.terms), m.cfg.Workers, m.cfg.Limit,
		func(w int) *scoreWorkspace { return &scoreWorkspace{worker: w} },
		func(ti int, ws *scoreWorkspace) error {
			span := m.cfg.Obs.StartSampledWorker(obs.PhaseTermScore, ws.worker)
			m.cfg.Tracker.TimeTask(func() { m.scoreTermBatch(ti, test, k, ss.PerTerm.Row(ti), ws, nil) })
			span.End()
			m.cfg.Obs.Add(obs.CounterTermsScored, 1)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return ss, nil
}

// Result is the outcome of a complete Run: per-term scores plus cost.
type Result struct {
	Terms   []Term
	PerTerm *linalg.Matrix // terms x test samples
	Scores  []float64      // total NS per test sample
	Cost    resource.Cost
}

// Run trains a FRaC model over the term wiring, scores the test set, and
// releases the model, returning per-term and total scores with the run's
// resource cost. This is the primitive every variant and ensemble member
// goes through.
func Run(train, test *dataset.Dataset, terms []Term, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), train, test, terms, cfg)
}

// RunCtx is Run with cooperative cancellation threaded through training and
// scoring.
func RunCtx(ctx context.Context, train, test *dataset.Dataset, terms []Term, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ownTracker := cfg.Tracker == nil
	if ownTracker {
		cfg.Tracker = resource.NewTracker()
	}
	model, err := TrainCtx(ctx, train, terms, cfg)
	if err != nil {
		return nil, err
	}
	ss, err := model.ScoreDatasetCtx(ctx, test)
	if err != nil {
		model.release()
		return nil, err
	}
	model.release()
	res := &Result{Terms: ss.Terms, PerTerm: ss.PerTerm, Scores: ss.Totals()}
	if ownTracker {
		res.Cost = cfg.Tracker.Stop()
	}
	return res, nil
}

// SanityCheckScores reports an error if any score is non-finite, which would
// indicate an error-model defect.
func SanityCheckScores(scores []float64) error {
	for i, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("core: score %d is %v", i, s)
		}
	}
	return nil
}
