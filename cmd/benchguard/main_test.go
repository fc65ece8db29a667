package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: frac
cpu: SomeCPU
BenchmarkScoreDataset-8             	     100	    105000 ns/op	       0 B/op	       0 allocs/op
BenchmarkTrainTerm-8                	      50	   2100000 ns/op	   12345 B/op	      40 allocs/op
BenchmarkTrainDataset/f=64/incore-8 	       2	  70514083 ns/op	27713640 B/op	   42050 allocs/op
BenchmarkTrainDataset/f=64/gather-8 	       2	  70890000 ns/op	55000000 B/op	   75870 allocs/op
BenchmarkNoNsColumn-8               	     100	        12 MB/s
PASS
ok  	frac	12.345s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkScoreDataset":             105000,
		"BenchmarkTrainTerm":                2100000,
		"BenchmarkTrainDataset/f=64/incore": 70514083,
		"BenchmarkTrainDataset/f=64/gather": 70890000,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v, want %v", name, got[name], ns)
		}
	}
}

func TestNormalizeName(t *testing.T) {
	cases := [][2]string{
		{"BenchmarkX-8", "BenchmarkX"},
		{"BenchmarkX-16", "BenchmarkX"},
		{"BenchmarkX", "BenchmarkX"},
		{"BenchmarkTrainDataset/f=64/incore-8", "BenchmarkTrainDataset/f=64/incore"},
		{"BenchmarkOdd-name", "BenchmarkOdd-name"}, // non-numeric suffix stays
	}
	for _, c := range cases {
		if got := normalizeName(c[0]); got != c[1] {
			t.Errorf("normalizeName(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestCheckRegressionsRaw(t *testing.T) {
	base := map[string]float64{"a": 100, "b": 100, "c": 100, "unrun": 50}
	live := map[string]float64{"a": 110, "b": 120, "c": 100, "extra": 1}
	rows := checkRegressions(live, base, 0.15, false)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 (intersection only)", len(rows))
	}
	byName := map[string]checkRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["a"].Regression || byName["c"].Regression {
		t.Error("a/c within 15% flagged as regression")
	}
	if !byName["b"].Regression {
		t.Error("b at +20% not flagged")
	}
}

// TestCheckRegressionsCalibrated: a uniformly 2x-slower machine must not
// trip the gate, but one benchmark regressing on top of the shift must.
func TestCheckRegressionsCalibrated(t *testing.T) {
	base := map[string]float64{"a": 100, "b": 100, "c": 100, "d": 100, "e": 100}
	live := map[string]float64{"a": 200, "b": 200, "c": 200, "d": 200, "e": 300}
	rows := checkRegressions(live, base, 0.15, true)
	byName := map[string]checkRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, n := range []string{"a", "b", "c", "d"} {
		if byName[n].Regression {
			t.Errorf("%s flagged despite uniform 2x shift", n)
		}
	}
	if !byName["e"].Regression {
		t.Error("e at 1.5x the calibrated shift not flagged")
	}
}

// TestUpdateAndLoadRoundTrip: -update must merge into an existing document
// without disturbing its other sections, and loadBaselines must read back
// what was written.
func TestUpdateAndLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	seed := `{"exhibits":{"table1":{"ns_op":5}},"go_bench":{"old":1.5,"shared":10}}`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := updateBaselines(path, map[string]float64{"shared": 20, "new": 7}); err != nil {
		t.Fatal(err)
	}
	got, err := loadBaselines(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"old": 1.5, "shared": 20, "new": 7}
	if len(got) != len(want) {
		t.Fatalf("go_bench = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("go_bench[%q] = %v, want %v", k, got[k], v)
		}
	}
	// Other sections survive.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["exhibits"]; !ok {
		t.Error("update dropped the exhibits section")
	}
}

func TestUpdateCreatesMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.json")
	if err := updateBaselines(path, map[string]float64{"a": 1}); err != nil {
		t.Fatal(err)
	}
	got, err := loadBaselines(path)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != 1 {
		t.Fatalf("go_bench = %v", got)
	}
}

// TestGateFailsOnBaselineWithoutLiveResult: a baseline whose benchmark was
// renamed or deleted must fail the gate and be named, not drop out of the
// comparison; with every baseline live, the same timings pass.
func TestGateFailsOnBaselineWithoutLiveResult(t *testing.T) {
	base := map[string]float64{"a": 100, "b": 100, "c": 100, "old/incore": 100, "old/reference": 100}
	live := map[string]float64{"a": 100, "b": 105, "c": 95, "new": 50}
	var out strings.Builder
	err := gate(&out, live, base, 0.15, true)
	if err == nil {
		t.Fatal("gate passed with two baselines missing from the live results")
	}
	for _, name := range []string{"old/incore", "old/reference"} {
		if !strings.Contains(err.Error(), name) || !strings.Contains(out.String(), name) {
			t.Errorf("%q not named; err = %v, output:\n%s", name, err, out.String())
		}
	}
	delete(base, "old/incore")
	delete(base, "old/reference")
	out.Reset()
	if err := gate(&out, live, base, 0.15, true); err != nil {
		t.Errorf("gate failed with every baseline live: %v\n%s", err, out.String())
	}
}

// TestMain runs benchguard's main instead of the tests when the test binary's
// first argument is "benchguard", so a test can run the command as a child
// process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "benchguard" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsPositionalArguments: flag parsing stops at the first argument
// that is not a flag, so a flag after one would be dropped without a word.
// benchguard takes no arguments, so it exits 2 naming the first one, before
// it reads any input or baseline.
func TestRejectsPositionalArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-input", "missing.txt", "extra", "-update"},
		{"extra"},
	} {
		out, err := exec.Command(os.Args[0], append([]string{"benchguard"}, args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), `unexpected argument "extra"`) {
			t.Errorf("benchguard %s: %v, output %q; want exit status 2 naming \"extra\"", strings.Join(args, " "), err, out)
		}
	}
}
