package main

import (
	"context"
	"encoding/json"
	"flag"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadFlagValues: fracgen divides the paper's feature counts by
// -scale, so a scale below 1 is an error naming the flag and its range,
// and so is a -profile no profile has; both are returned before the
// output directory is made or anything is written. A scale of 1 or more
// writes the profile.
func TestRejectsBadFlagValues(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		scale   int
		profile string
		want    []string
	}{
		{0, "breast.basal", []string{"-scale 0", "at least 1"}},
		{-3, "breast.basal", []string{"-scale -3", "at least 1"}},
		{64, "breast", []string{`"breast"`}},
	} {
		out := filepath.Join(t.TempDir(), "data")
		err := run(ctx, out, c.scale, c.profile, 1, nil)
		for _, w := range c.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("-scale %d -profile %s: err = %v, want it to name %s", c.scale, c.profile, err, w)
			}
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-scale %d -profile %s: the output directory exists (stat: %v)", c.scale, c.profile, err)
		}
	}
	out := t.TempDir()
	if err := run(ctx, out, 512, "breast.basal", 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "breast.basal.tsv")); err != nil {
		t.Errorf("-scale 512: %v", err)
	}
}

// TestMain runs fracgen's main instead of the tests when the test binary's
// first argument is "fracgen", so a test can run the command as a child
// process. The child drops the testing package's flags first: the config
// hash covers every flag on the command line.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "fracgen" {
		os.Args = os.Args[1:]
		flag.CommandLine = flag.NewFlagSet("fracgen", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFracgen runs fracgen as a child process in a fresh directory and
// returns its exit status and output.
func runFracgen(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"fracgen"}, args...)...)
	cmd.Dir = t.TempDir()
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatalf("fracgen %s: %v", strings.Join(args, " "), err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestRejectsPositionalArguments: flag parsing stops at the first argument
// that is not a flag, so a flag after one would be dropped without a word.
// fracgen takes no arguments, so it exits 2 naming the first one, before it
// writes anything.
func TestRejectsPositionalArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-out", "data", "extra", "-scale", "0"},
		{"extra"},
	} {
		if code, out := runFracgen(t, args...); code != 2 || !strings.Contains(out, `unexpected argument "extra"`) {
			t.Errorf("fracgen %s: exit status %d, output %q; want 2 naming \"extra\"", strings.Join(args, " "), code, out)
		}
	}
}

// TestVersion: -version prints the build and exits 0 without running.
func TestVersion(t *testing.T) {
	if code, out := runFracgen(t, "-version"); code != 0 || !strings.HasPrefix(out, "fracgen version ") {
		t.Errorf("fracgen -version: exit status %d, output %q; want 0 and \"fracgen version …\"", code, out)
	}
}

// configHash returns the config hash fracgen's manifest records for args.
// The child's -debug-addr names a port this test holds, so it exits 1 at
// the debug server's bind, before any work, with its manifest written to
// -metrics-out.
func configHash(t *testing.T, args ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	metrics := filepath.Join(t.TempDir(), "m.json")
	code, out := runFracgen(t, append([]string{"-debug-addr", ln.Addr().String(), "-metrics-out", metrics}, args...)...)
	if code != 1 || !strings.Contains(out, "-debug-addr") {
		t.Fatalf("fracgen %s: exit status %d, output %q; want 1 at the debug server's bind", strings.Join(args, " "), code, out)
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

// TestConfigHashPinned: fracgen's config hash covers every flag except the
// telemetry flags. Each want is the config_hash that `fracgen <args>
// -metrics-out m.json` wrote when fracgen listed its hashed flags by hand,
// so result files written before and after the shared front end stay
// comparable.
func TestConfigHashPinned(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-out", "data", "-scale", "64", "-profile", "breast.basal", "-seed", "1"}, "91b9ae21c1d92a12"},
		{[]string{"-out", "data", "-scale", "512", "-profile", "schizophrenia", "-seed", "2"}, "1e6bc0757f01b442"},
		{[]string{"-out", "data", "-scale", "32", "-profile", "autism", "-seed", "1"}, "54a7272a6eab2dea"},
		{[]string{"-out", "defdir"}, "d0501176811087ed"},
	} {
		if got := configHash(t, c.args...); got != c.want {
			t.Errorf("fracgen %s: config hash %s, want %s", strings.Join(c.args, " "), got, c.want)
		}
	}
}
