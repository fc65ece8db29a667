package main

import (
	"encoding/json"
	"flag"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs fracbench's main instead of the tests when the test
// binary's first argument is "fracbench", so a test can run the command as
// a child process. The child drops the testing package's flags first: the
// config hash covers every flag on the command line.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "fracbench" {
		os.Args = os.Args[1:]
		flag.CommandLine = flag.NewFlagSet("fracbench", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFracbench runs fracbench as a child process in a fresh directory and
// returns its exit status and output.
func runFracbench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"fracbench"}, args...)...)
	cmd.Dir = t.TempDir()
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatalf("fracbench %s: %v", strings.Join(args, " "), err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestRejectsPositionalArguments: flag parsing stops at the first argument
// that is not a flag, so a flag after the exhibit would be dropped without
// a word. fracbench takes one exhibit, so it exits 2 naming the argument
// after it, before it regenerates anything.
func TestRejectsPositionalArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "512", "table1", "extra", "-replicates", "1"},
		{"table1", "extra"},
	} {
		if code, out := runFracbench(t, args...); code != 2 || !strings.Contains(out, `unexpected argument "extra" after the exhibit "table1"`) {
			t.Errorf("fracbench %s: exit status %d, output %q; want 2 naming \"extra\"", strings.Join(args, " "), code, out)
		}
	}
}

// TestVersion: -version prints the build and exits 0 without running.
func TestVersion(t *testing.T) {
	if code, out := runFracbench(t, "-version"); code != 0 || !strings.HasPrefix(out, "fracbench version ") {
		t.Errorf("fracbench -version: exit status %d, output %q; want 0 and \"fracbench version …\"", code, out)
	}
}

// configHash returns the config hash fracbench's manifest records for args.
// The child's -debug-addr names a port this test holds, so it exits 1 at
// the debug server's bind, before any exhibit runs, with its manifest
// written to -metrics-out.
func configHash(t *testing.T, args ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	metrics := filepath.Join(t.TempDir(), "m.json")
	code, out := runFracbench(t, append([]string{"-debug-addr", ln.Addr().String(), "-metrics-out", metrics}, args...)...)
	if code != 1 || !strings.Contains(out, "-debug-addr") {
		t.Fatalf("fracbench %s: exit status %d, output %q; want 1 at the debug server's bind", strings.Join(args, " "), code, out)
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

// TestConfigHashPinned: fracbench's config hash covers every flag except
// the telemetry flags and -bench-json, and the exhibit ("all" when absent)
// under the key "cmd". Each want is the config_hash that `fracbench <args>
// -metrics-out m.json` wrote when fracbench listed its hashed flags by
// hand. The first row is the CI smoke command, whose hash
// BENCH_smoke_baseline.json records.
func TestConfigHashPinned(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "256", "-replicates", "2", "-workers", "2", "-warmup", "0", "-iters", "1",
			"-bench-json", "BENCH_smoke.json", "table3"}, "452d472c8de35bc5"},
		{[]string{"-scale", "512", "-replicates", "1", "-bench-json", "out.json", "table1"}, "4b9519f81c58a1a6"},
		{[]string{"-scale", "512", "-replicates", "1", "table1"}, "4b9519f81c58a1a6"},
		{[]string{"-scale", "64", "-replicates", "3", "-seed", "3", "-workers", "2", "-filter-p", "0.1",
			"-members", "5", "-diverse-p", "0.4", "-diverse-ensemble-p", "0.1", "-jl-dim", "512",
			"-jl-repeats", "3", "-sweep-parallel", "2", "-warmup", "0", "-iters", "2", "-bench-json", ""}, "ccd9fa68a7157271"},
	} {
		if got := configHash(t, c.args...); got != c.want {
			t.Errorf("fracbench %s: config hash %s, want %s", strings.Join(c.args, " "), got, c.want)
		}
	}
}
