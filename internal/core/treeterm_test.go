package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/resource"
	"frac/internal/rng"
	"frac/internal/svm"
	"frac/internal/tree"
)

// randomCatTrainTest builds train and test sets over one schema: nCat
// categorical columns of arity 2–4 that track a shared latent value, so
// trees have structure to learn, followed by nReal real columns. Each
// column independently becomes "holey" with probability colMissP, and a
// holey column drops a fifth of its cells, so targets are fully and
// partially observed side by side.
func randomCatTrainTest(n, nTest, nCat, nReal int, colMissP float64, src *rng.Source) (train, test *dataset.Dataset) {
	schema := make(dataset.Schema, nCat+nReal)
	holey := make([]bool, len(schema))
	for j := range schema {
		if j < nCat {
			schema[j] = dataset.Feature{Name: "c", Kind: dataset.Categorical, Arity: 2 + src.IntN(3)}
		} else {
			schema[j] = dataset.Feature{Name: "r", Kind: dataset.Real}
		}
		holey[j] = src.Bernoulli(colMissP)
	}
	fill := func(name string, rows int) *dataset.Dataset {
		d := dataset.New(name, schema, rows)
		for i := 0; i < rows; i++ {
			latent := src.Normal(0, 1)
			s := d.Sample(i)
			for j, f := range schema {
				switch {
				case holey[j] && src.Bernoulli(0.2):
					s[j] = dataset.Missing
				case f.Kind == dataset.Categorical && src.Bernoulli(0.7):
					s[j] = float64(int(math.Abs(latent)*2+float64(j%2)) % f.Arity)
				case f.Kind == dataset.Categorical:
					s[j] = float64(src.IntN(f.Arity))
				default:
					s[j] = latent + src.Normal(0, 0.5)
				}
			}
		}
		return d
	}
	return fill("cat-train", n), fill("cat-test", nTest)
}

// treeWirings are the wirings the tree route is pinned under: full terms,
// diverse input subsets (two predictors per feature) and partial
// filtering, each drawing its choices from a fresh stream of seed.
var treeWirings = []struct {
	name string
	run  func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error)
}{
	{"full", func(train, test *dataset.Dataset, _ uint64, cfg Config) (*Result, error) {
		return Run(train, test, FullTerms(train.NumFeatures()), cfg)
	}},
	{"diverse", func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error) {
		return RunDiverse(train, test, 0.5, 2, rng.New(seed), cfg)
	}},
	{"partial", func(train, test *dataset.Dataset, seed uint64, cfg Config) (*Result, error) {
		res, _, err := RunPartialFiltered(train, test, RandomFilter, 0.5, rng.New(seed), cfg)
		return res, err
	}},
}

// treeTerms counts the terms of a Train over train that planTerms routes to
// the tree under l. withReal counts those with a real input.
func treeTerms(t *testing.T, train *dataset.Dataset, terms []Term, l Learners) (all, withReal int) {
	t.Helper()
	plan, err := planTerms(train, terms, Config{Learners: l}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for i, term := range terms {
		if plan[i].route != routeTree {
			continue
		}
		all++
		for _, c := range term.Inputs {
			if train.Schema[c].Kind != dataset.Categorical {
				withReal++
				break
			}
		}
	}
	return all, withReal
}

// TestTreeRouteBitIdentical is the tree route's equivalence property: over
// random data sets with partially observed targets, fold counts, error
// models, MinLeaf values and worker counts, under the full, diverse and
// partial-filter wirings, the tree route reproduces the per-term scores of
// the frozen gather reference (treeReference) exactly (Float64bits), and
// on the full wiring the saved models are byte-identical. The first 30
// trials alternate Learners{Tree} on all-categorical data and SVR plus
// Tree on mixed data (categorical terms with real inputs next to SVR
// terms); the 20 after them alternate TreeLearners on all-real data
// (regression trees) and on mixed data. The counters prove that the
// reference gathered exactly the terms the route trained on the design,
// that the route gathered nothing, and that the mixed trials trained terms
// with a real input on the design route.
func TestTreeRouteBitIdentical(t *testing.T) {
	meta := rng.New(0x7ee5)
	var routeTerms, realInputTerms int
	for trial := 0; trial < 50; trial++ {
		wiring := treeWirings[trial%len(treeWirings)]
		treeOnly, mixed := trial >= 30, trial%2 == 1
		nReal := 0
		if mixed {
			nReal = 1 + meta.IntN(4)
		}
		n, nCat := 10+meta.IntN(60), 2+meta.IntN(10)
		if treeOnly && !mixed {
			nCat, nReal = 0, 2+meta.IntN(8)
		}
		colMissP := []float64{0, 0.3, 0.6}[(trial/2)%3]
		folds := []int{2, 3, 5}[meta.IntN(3)]
		p := tree.Params{MinLeaf: 1 + meta.IntN(3)}
		seed, wseed := meta.Uint64(), meta.Uint64()
		train, test := randomCatTrainTest(n, 8, nCat, nReal, colMissP, rng.New(meta.Uint64()))

		kde := trial%4 == 1
		if treeOnly {
			kde = (trial/2)%2 == 1
		}
		cfg := Config{Seed: seed, CVFolds: folds, KDEError: kde, Workers: 1 + meta.IntN(4)}
		route, ref := cfg, cfg
		route.Learners = Learners{Tree: &p}
		if mixed && !treeOnly {
			route.Learners.SVR = &svm.SVRParams{}
		}
		ref.Learners = treeReference(route.Learners)
		routeRec, refRec := obs.New(), obs.New()
		route.Obs, ref.Obs = routeRec, refRec
		got, err := wiring.run(train, test, wseed, route)
		if err != nil {
			t.Fatalf("trial %d %s route run: %v", trial, wiring.name, err)
		}
		want, err := wiring.run(train, test, wseed, ref)
		if err != nil {
			t.Fatalf("trial %d %s reference run: %v", trial, wiring.name, err)
		}
		if got.PerTerm.Rows != want.PerTerm.Rows {
			t.Fatalf("trial %d %s: %d terms, reference %d", trial, wiring.name, got.PerTerm.Rows, want.PerTerm.Rows)
		}
		for ti := 0; ti < want.PerTerm.Rows; ti++ {
			g, w := got.PerTerm.Row(ti), want.PerTerm.Row(ti)
			for s := range w {
				if math.Float64bits(g[s]) != math.Float64bits(w[s]) {
					t.Fatalf("trial %d %s (n=%d cat=%d real=%d folds=%d) term %d sample %d: route %v, reference %v",
						trial, wiring.name, n, nCat, nReal, folds, ti, s, g[s], w[s])
				}
			}
		}

		onDesign := routeRec.Count(obs.CounterTermsTree)
		all, withReal := treeTerms(t, train, got.Terms, route.Learners)
		if onDesign != int64(all) || refRec.Count(obs.CounterTermsGathered) != onDesign {
			t.Fatalf("trial %d %s: %d design-route terms, %d tree terms, reference gathered %d",
				trial, wiring.name, onDesign, all, refRec.Count(obs.CounterTermsGathered))
		}
		if gathered := routeRec.Count(obs.CounterTermsGathered); gathered != 0 {
			t.Fatalf("trial %d %s: the route gathered %d terms", trial, wiring.name, gathered)
		}
		if refRec.Count(obs.CounterTermsTree) != 0 || refRec.Count(obs.CounterTreeFits) != 0 {
			t.Fatalf("trial %d %s: the reference run counted tree-route work", trial, wiring.name)
		}
		routeTerms += all
		if mixed {
			realInputTerms += withReal
		}

		if wiring.name == "full" {
			saved := func(cfg Config) []byte {
				t.Helper()
				cfg.Obs = nil
				m, err := Train(train, FullTerms(train.NumFeatures()), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := m.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if !bytes.Equal(saved(route), saved(ref)) {
				t.Fatalf("trial %d: the route's saved model differs from the reference's", trial)
			}
		}
	}
	if realInputTerms == 0 {
		t.Fatalf("%d terms on the design route, none of them in a mixed trial with a real input", routeTerms)
	}
	t.Logf("%d terms on the design route bit-identical to the reference, %d of them mixed terms with a real input",
		routeTerms, realInputTerms)
}

// TestTreeFitCountersOneRoute pins the tree counters: with TreeLearners on
// all-real, all-categorical and mixed data, and with PaperLearners on
// mixed data, under the diverse wiring, every tree term trains on the
// design route with one fit per CV fold plus its final fit, and no term
// takes the gather loop.
func TestTreeFitCountersOneRoute(t *testing.T) {
	for _, c := range []struct {
		name        string
		nCat, nReal int
		learners    Learners
	}{
		{"tree/all-real", 0, 6, TreeLearners(tree.Params{})},
		{"tree/all-categorical", 8, 0, TreeLearners(tree.Params{})},
		{"tree/mixed", 8, 3, TreeLearners(tree.Params{})},
		{"paper/mixed", 8, 3, PaperLearners()},
	} {
		train, test := randomCatTrainTest(40, 6, c.nCat, c.nReal, 0.3, rng.New(0x3f))
		rec := obs.New()
		res, err := RunDiverse(train, test, 0.5, 2, rng.New(9), Config{Seed: 4, CVFolds: 4, Obs: rec, Learners: c.learners})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		onDesign := rec.Count(obs.CounterTermsTree)
		if all, _ := treeTerms(t, train, res.Terms, c.learners); all == 0 || onDesign != int64(all) {
			t.Fatalf("%s: %d of %d tree terms on the design route", c.name, onDesign, all)
		}
		if got, want := rec.Count(obs.CounterTreeFits), (4+1)*onDesign; got != want {
			t.Errorf("%s: %d tree fits, want (4 folds + 1) x %d terms = %d", c.name, got, onDesign, want)
		}
		if got := rec.Count(obs.CounterTermsGathered); got != 0 {
			t.Errorf("%s: %d terms took the gather loop", c.name, got)
		}
	}
}

// TestTrainTermWithoutSharedDesign: trainTerm called outside TrainCtx has
// no shared design, so a term planTerms routes to the tree is an error
// naming the feature, not a worker panic.
func TestTrainTermWithoutSharedDesign(t *testing.T) {
	train, _ := randomCatTrainTest(30, 1, 2, 2, 0, rng.New(0x5d))
	terms := FullTerms(train.NumFeatures())
	cfg := Config{Seed: 2, Learners: TreeLearners(tree.Params{})}.withDefaults()
	plan, err := planTerms(train, terms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, term := range terms {
		if plan[i].route != routeTree {
			t.Fatalf("term %d does not take the tree route under TreeLearners", term.Target)
		}
		if _, err := trainTerm(train, term, plan[i], cfg, rng.New(1), new(trainScratch)); err == nil {
			t.Errorf("term %d: trained as a tree without the shared design", term.Target)
		}
	}
}

// TestTreeRouteWorkerInvariance: a fixture whose categorical terms all take
// the design route scores bit for bit the same at 1, 2, 4 and GOMAXPROCS
// workers, with the same routing.
func TestTreeRouteWorkerInvariance(t *testing.T) {
	train, test := randomCatTrainTest(50, 8, 16, 0, 0.3, rng.New(0x11))
	terms := FullTerms(train.NumFeatures())
	run := func(workers int) (*Result, *obs.Recorder) {
		t.Helper()
		rec := obs.New()
		res, err := Run(train, test, terms, Config{Seed: 7, Workers: workers, Obs: rec})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, rec
	}
	ref, refRec := run(1)
	if got := refRec.Count(obs.CounterTermsTree); got != int64(len(terms)) {
		t.Fatalf("%d of %d terms on the design route", got, len(terms))
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got, rec := run(w)
		if rec.Count(obs.CounterTermsTree) != refRec.Count(obs.CounterTermsTree) {
			t.Errorf("workers=%d: %d design-route terms, want %d", w, rec.Count(obs.CounterTermsTree), refRec.Count(obs.CounterTermsTree))
		}
		for s := range got.Scores {
			if math.Float64bits(got.Scores[s]) != math.Float64bits(ref.Scores[s]) {
				t.Errorf("workers=%d sample %d: %v, want %v", w, s, got.Scores[s], ref.Scores[s])
			}
		}
	}
}

// TestTreeRouteAccountedPeak: a Train whose learned terms are all trees
// tracks the shared design once and, with it, one reservation per worker
// for the classification trees' count tables, so its accounted peak does
// not depend on which terms overlap in time: it is the design's bytes plus
// the table reservation (tableReservation) plus the trained model's, at 1,
// 2 and 4 workers. The fixtures are all-categorical data under the default
// learners, and all-real and mixed data under TreeLearners.
func TestTreeRouteAccountedPeak(t *testing.T) {
	for _, c := range []struct {
		name        string
		nCat, nReal int
		learners    Learners
	}{
		{"paper/all-categorical", 24, 0, Learners{}},
		{"tree/all-real", 0, 12, TreeLearners(tree.Params{})},
		{"tree/mixed", 16, 6, TreeLearners(tree.Params{})},
	} {
		train, _ := randomCatTrainTest(60, 1, c.nCat, c.nReal, 0.3, rng.New(0x2b))
		terms := FullTerms(train.NumFeatures())
		design := tree.NewDesign(train.X, train.Schema).Bytes()
		for _, w := range []int{1, 2, 4} {
			tracker, rec := resource.NewTracker(), obs.New()
			m, err := Train(train, terms, Config{Seed: 3, Workers: w, Tracker: tracker, Obs: rec, Learners: c.learners})
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Count(obs.CounterTermsTree); got != int64(len(terms)) {
				t.Fatalf("%s workers=%d: %d of %d terms on the design route", c.name, w, got, len(terms))
			}
			tables := tableReservation(train, terms, w)
			if c.nCat > 0 && tables == 0 {
				t.Fatalf("%s: no count tables reserved", c.name)
			}
			if got, want := tracker.PeakBytes(), design+tables+m.Bytes(); got != want {
				t.Errorf("%s workers=%d: accounted peak %d bytes, want design %d + count tables %d + model %d = %d",
					c.name, w, got, design, tables, m.Bytes(), want)
			}
		}
	}
}

// tableReservation restates the count-table reservation of a Train of
// terms at the default tree parameters: for each term that trains a
// classification tree (a categorical target with at least minObserved
// observed rows and some inputs), MaxDepth (12) levels of 4-byte counts,
// a·k + a + k + 1 of them per categorical input of arity a under a target
// of arity k; one such set per worker, at the widest term's size, for at
// most as many workers as there are such terms.
func tableReservation(train *dataset.Dataset, terms []Term, workers int) int64 {
	var widest int64
	count := 0
	for _, term := range terms {
		target := train.Schema[term.Target]
		m := 0
		for i := 0; i < train.NumSamples(); i++ {
			if !dataset.IsMissing(train.X.At(i, term.Target)) {
				m++
			}
		}
		if target.Kind != dataset.Categorical || m < minObserved || len(term.Inputs) == 0 {
			continue
		}
		k, n := target.Arity, 0
		for _, j := range term.Inputs {
			if f := train.Schema[j]; f.Kind == dataset.Categorical {
				n += f.Arity*k + f.Arity + k + 1
			}
		}
		if n > 0 {
			count++
			widest = max(widest, int64(12*n*4))
		}
	}
	return int64(min(workers, count)) * widest
}
