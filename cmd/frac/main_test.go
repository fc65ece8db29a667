package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"frac"
)

// realDataset builds n samples of f correlated real features.
func realDataset(name string, n, f int) *frac.Dataset {
	schema := make(frac.Schema, f)
	for j := range schema {
		schema[j] = frac.Feature{Name: fmt.Sprintf("g%d", j), Kind: frac.Real}
	}
	d := frac.NewDataset(name, schema, n)
	src := frac.NewRNG(uint64(n*100 + f))
	for i := 0; i < n; i++ {
		base := src.Normal(0, 1)
		s := d.Sample(i)
		for j := range s {
			s[j] = base + src.Normal(0, 0.5)
		}
	}
	return d
}

// TestLoadAndScoreRejectsWidthMismatch: scoring a saved model against a test
// set narrower or wider than its schema is an error naming the feature
// counts — not an index-out-of-range panic (narrower) or NS values computed
// from the wrong columns (wider).
func TestLoadAndScoreRejectsWidthMismatch(t *testing.T) {
	dir := t.TempDir()
	const f = 4
	model, err := frac.Train(realDataset("train", 12, f), frac.FullTerms(f), frac.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "m.frac")
	if err := writeFileAtomic(modelPath, func(w io.Writer) error { return frac.SaveModel(w, model) }); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{f - 1, f, f + 2} {
		testPath := filepath.Join(dir, fmt.Sprintf("test%d.tsv", width))
		if err := frac.WriteDatasetFile(testPath, realDataset("test", 3, width)); err != nil {
			t.Fatal(err)
		}
		err := loadAndScore(modelPath, testPath, options{})
		switch {
		case width == f && err != nil:
			t.Errorf("matching width: %v", err)
		case width != f && (err == nil || !strings.Contains(err.Error(), "features")):
			t.Errorf("width %d against a %d-feature model: got %v, want a feature-count error", width, f, err)
		}
	}
}

// TestWriteFileAtomicKeepsOldArtifactOnError: a write that fails part way
// leaves the existing artifact byte-identical and no temp file behind; a
// write that succeeds replaces it whole.
func TestWriteFileAtomicKeepsOldArtifactOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.frac")
	old := []byte("previous model bytes")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	onlyArtifact := func() {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "m.frac" {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Errorf("directory holds %v, want only m.frac", names)
		}
	}

	boom := errors.New("write failed")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial new model")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeFileAtomic = %v, want the callback's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Errorf("artifact after failed write = %q (%v), want %q", got, err, old)
	}
	onlyArtifact()

	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new model"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new model" {
		t.Errorf("artifact after successful write = %q (%v), want %q", got, err, "new model")
	}
	onlyArtifact()
}

// TestRejectsBadFlagValues: a -learners value other than paper or tree, in
// replicate mode and with -save-model, and -replicates below 1 with -data
// are errors naming the allowed values, returned before anything trains or
// is saved; paper and tree run. So are an unknown -variant, a -p outside
// (0, 1] for a filter or diverse variant, -members below 1 for an ensemble
// and -dim below 1 for jl, returned before the data set is read (its path
// does not exist); the range's bounds run.
func TestRejectsBadFlagValues(t *testing.T) {
	dir := t.TempDir()
	const n, f = 30, 4
	pool := realDataset("pool", n, f)
	pool.Anomalous = make([]bool, n)
	for i := 0; i < n; i += 5 {
		pool.Anomalous[i] = true
	}
	poolPath := filepath.Join(dir, "pool.tsv")
	if err := frac.WriteDatasetFile(poolPath, pool); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name       string
		replicates int
		learners   string
		want       []string
	}{
		{"learners trees", 1, "trees", []string{`"trees"`, "paper", "tree"}},
		{"learners empty", 1, "", []string{"paper", "tree"}},
		{"replicates 0", 0, "paper", []string{"-replicates", "at least 1"}},
		{"replicates -2", -2, "tree", []string{"-replicates", "at least 1"}},
	} {
		err := run(ctx, poolPath, "", "", c.replicates, options{variant: "full", seed: 1, learners: c.learners})
		if err == nil {
			t.Errorf("%s: run succeeded, want an error", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: err = %v, want it to name %s", c.name, err, w)
			}
		}
	}
	modelPath := filepath.Join(dir, "m.frac")
	if err := trainAndSave(ctx, poolPath, modelPath, "", true, options{seed: 1, learners: "trees"}); err == nil || !strings.Contains(err.Error(), "paper or tree") {
		t.Errorf("-save-model -learners trees: err = %v, want one naming paper and tree", err)
	}
	if _, err := os.Stat(modelPath); !os.IsNotExist(err) {
		t.Errorf("-save-model -learners trees left a model behind (stat: %v)", err)
	}
	for _, learners := range []string{"paper", "tree"} {
		if err := run(ctx, poolPath, "", "", 1, options{variant: "full", seed: 1, learners: learners}); err != nil {
			t.Errorf("-learners %s: %v", learners, err)
		}
	}
	missing := filepath.Join(dir, "missing.tsv")
	for _, c := range []struct {
		name string
		opt  options
		want []string
	}{
		{"variant unknown", options{variant: "filter", p: 0.5}, []string{`"filter"`, "random-filter", "jl"}},
		{"p 0", options{variant: "random-filter", p: 0}, []string{"-p 0", "(0, 1]"}},
		{"p 1.5", options{variant: "diverse", p: 1.5}, []string{"-p 1.5", "(0, 1]"}},
		{"p -0.5 ensemble", options{variant: "diverse-ensemble", p: -0.5, members: 10}, []string{"-p -0.5", "(0, 1]"}},
		{"members 0", options{variant: "random-ensemble", p: 0.5, members: 0}, []string{"-members 0", "at least 1"}},
		{"dim 0", options{variant: "jl", dim: 0}, []string{"-dim 0", "at least 1"}},
	} {
		c.opt.seed, c.opt.learners = 1, "paper"
		err := run(ctx, missing, "", "", 1, c.opt)
		if err == nil {
			t.Errorf("%s: run succeeded, want an error", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: err = %v, want it to name %s", c.name, err, w)
			}
		}
	}
	for _, opt := range []options{
		{variant: "partial-filter", p: 1},
		{variant: "random-ensemble", p: 0.5, members: 1},
		{variant: "jl", dim: 1},
	} {
		opt.seed, opt.learners = 1, "paper"
		if err := run(ctx, poolPath, "", "", 1, opt); err != nil {
			t.Errorf("-variant %s -p %v -members %d -dim %d: %v", opt.variant, opt.p, opt.members, opt.dim, err)
		}
	}
}

// TestMain runs frac's main instead of the tests when the test binary's
// first argument is "frac", so a test can run the command as a child
// process. The child drops the testing package's flags first: the config
// hash covers every flag on the command line.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "frac" {
		os.Args = os.Args[1:]
		flag.CommandLine = flag.NewFlagSet("frac", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFrac runs frac as a child process and returns its exit status and
// output.
func runFrac(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"frac"}, args...)...)
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatalf("frac %s: %v", strings.Join(args, " "), err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestVersion: -version prints the build and exits 0 without running.
func TestVersion(t *testing.T) {
	if code, out := runFrac(t, "-version"); code != 0 || !strings.HasPrefix(out, "frac version ") {
		t.Errorf("frac -version: exit status %d, output %q; want 0 and \"frac version …\"", code, out)
	}
}

// configHash returns the config hash frac's manifest records for args. The
// child's -debug-addr names a port this test holds, so it exits 1 at the
// debug server's bind, before any work, with its manifest written to
// -metrics-out.
func configHash(t *testing.T, args ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	metrics := filepath.Join(t.TempDir(), "m.json")
	code, out := runFrac(t, append([]string{"-debug-addr", ln.Addr().String(), "-metrics-out", metrics}, args...)...)
	if code != 1 || !strings.Contains(out, "-debug-addr") {
		t.Fatalf("frac %s: exit status %d, output %q; want 1 at the debug server's bind", strings.Join(args, " "), code, out)
	}
	var doc struct {
		Manifest struct {
			ConfigHash string `json:"config_hash"`
		} `json:"manifest"`
	}
	blob, err := os.ReadFile(metrics)
	if err == nil {
		err = json.Unmarshal(blob, &doc)
	}
	if err != nil {
		t.Fatal(err)
	}
	return doc.Manifest.ConfigHash
}

// TestConfigHashPinned: frac's config hash covers every flag except the
// telemetry flags and -data, -train, -test, -scores, -save-model and
// -load-model. Each want is the config_hash that `frac <args> -metrics-out
// m.json` wrote when frac listed its hashed flags by hand (a run that fails
// on a missing data file writes its manifest too), so result files written
// before and after the shared front end stay comparable.
func TestConfigHashPinned(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-data", "missing.tsv"}, "81de25ec6cb080aa"},
		{[]string{"-data", "other.tsv", "-scores", "-progress", "-obs-term-sample", "1"}, "81de25ec6cb080aa"},
		{[]string{"-data", "data/biomarkers.tsv", "-replicates", "2", "-seed", "9"}, "736c39571e6e4c5d"},
		{[]string{"-data", "data/biomarkers.tsv", "-replicates", "2", "-variant", "random-ensemble",
			"-members", "4", "-p", "0.3", "-workers", "4", "-no-drift-ref"}, "23673803254c3d1d"},
		{[]string{"-data", "data/autism.tsv", "-variant", "jl", "-dim", "128", "-learners", "tree",
			"-replicates", "2", "-scores"}, "9357dea81ec4305c"},
		{[]string{"-train", "data/breast.basal.tsv", "-drift-ref", "data/breast.basal.tsv",
			"-save-model", "model.frac", "-seed", "1"}, "9b43b2685ee121f6"},
		{[]string{"-load-model", "m.frac", "-test", "data/schizophrenia-test.tsv", "-scores",
			"-explain-top", "5", "-explain-out", "e.jsonl", "-explain-quantile", "0.9"}, "f8d535c6b108c453"},
	} {
		if got := configHash(t, c.args...); got != c.want {
			t.Errorf("frac %s: config hash %s, want %s", strings.Join(c.args, " "), got, c.want)
		}
	}
}

// TestRejectsPositionalArguments: flag parsing stops at the first argument
// that is not a flag, so a flag after one would be dropped without a word.
// frac takes no arguments, so it exits 2 naming the first one, before it
// reads or trains anything.
func TestRejectsPositionalArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-data", "missing.tsv", "extra", "-replicates", "1"},
		{"-train", "missing.tsv", "-save-model", "m.frac", "extra"},
	} {
		if code, out := runFrac(t, args...); code != 2 || !strings.Contains(out, `unexpected argument "extra"`) {
			t.Errorf("frac %s: exit status %d, output %q; want 2 naming \"extra\"", strings.Join(args, " "), code, out)
		}
	}
}

// TestSaveModelRunsOnThePool: with telemetry on, -save-model trains (and
// captures its drift reference) through the instrumented compute pool, so
// its metrics report acquires, and its artifact is the one a run without
// telemetry saves; -load-model scores without a pool, so its metrics have
// no pool section.
func TestSaveModelRunsOnThePool(t *testing.T) {
	dir := t.TempDir()
	trainPath, testPath := filepath.Join(dir, "train.tsv"), filepath.Join(dir, "test.tsv")
	if err := frac.WriteDatasetFile(trainPath, realDataset("train", 30, 5)); err != nil {
		t.Fatal(err)
	}
	if err := frac.WriteDatasetFile(testPath, realDataset("test", 6, 5)); err != nil {
		t.Fatal(err)
	}
	pool := func(metrics string) map[string]any {
		t.Helper()
		var doc struct {
			Pool map[string]any `json:"pool"`
		}
		blob, err := os.ReadFile(metrics)
		if err == nil {
			err = json.Unmarshal(blob, &doc)
		}
		if err != nil {
			t.Fatal(err)
		}
		return doc.Pool
	}
	plain, traced := filepath.Join(dir, "plain.frac"), filepath.Join(dir, "traced.frac")
	saveMetrics, loadMetrics := filepath.Join(dir, "save.json"), filepath.Join(dir, "load.json")
	for _, args := range [][]string{
		{"-train", trainPath, "-save-model", plain, "-seed", "1", "-workers", "2"},
		{"-train", trainPath, "-save-model", traced, "-seed", "1", "-workers", "2", "-metrics-out", saveMetrics},
		{"-load-model", traced, "-test", testPath, "-metrics-out", loadMetrics},
	} {
		if code, out := runFrac(t, args...); code != 0 {
			t.Fatalf("frac %s: exit status %d, output %q", strings.Join(args, " "), code, out)
		}
	}
	if p := pool(saveMetrics); p == nil || p["acquires"].(float64) <= 0 {
		t.Errorf("-save-model metrics: pool %v, want acquires > 0", p)
	}
	if p := pool(loadMetrics); p != nil {
		t.Errorf("-load-model metrics: pool %v, want no pool section", p)
	}
	a, errA := os.ReadFile(plain)
	b, errB := os.ReadFile(traced)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Errorf("artifact saved with telemetry differs from the one saved without it (%v, %v)", errA, errB)
	}
}
