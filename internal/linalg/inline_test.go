package linalg

import (
	"os/exec"
	"regexp"
	"testing"
)

// TestKernelWrappersInline is the CI form of the -gcflags=-m check: every
// exported kernel wrapper must stay inlinable into callers. The wrappers are
// deliberately a single forwarding call with validation moved into the
// outlined kernel — two outlined calls (panic helper + kernel) exceed the
// compiler's inlining budget, one fits — and this test fails if a future
// edit (an extra check, a fmt call) pushes one back over the budget.
func TestKernelWrappersInline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	// -m diagnostics land on stderr; the package dir is the test's cwd.
	out, err := exec.Command(goBin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{
		"Dot", "Axpy", "DotFast", "SqDist",
	} {
		re := regexp.MustCompile(`can inline ` + fn + `\b`)
		if !re.Match(out) {
			t.Errorf("%s is no longer inlinable (no %q in -gcflags=-m output)", fn, re)
		}
	}
}
