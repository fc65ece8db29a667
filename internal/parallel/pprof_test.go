package parallel

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"runtime/pprof"
	"testing"
)

// TestWorkerPoolProfileLabels collects a real CPU profile across a labeled
// fan-out and asserts the frac_phase / frac_worker / frac_block label keys
// reach the profile's string table. The profile is a gzipped proto whose
// string table stores label keys verbatim, so a byte search after
// decompression is enough — no proto decoding needed.
func TestWorkerPoolProfileLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("collects a CPU profile")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cannot start CPU profile: %v", err)
	}
	// Enough work per index for the 100 Hz sampler to land inside fn: ~150
	// indices x ~2ms each across 4 workers ≈ 75ms of labeled CPU.
	// One slot per index: workers never write the same memory.
	sink := make([]float64, 150)
	err := ForWorkersWithStateErr(WithPhaseLabel(context.Background(), "labeltest"),
		len(sink), 4, nil,
		func(int) int { return 0 },
		func(i int, _ int) error {
			x := float64(i)
			for j := 0; j < 200_000; j++ {
				x = x*1.0000001 + 1
			}
			sink[i] = x
			return nil
		})
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	_ = sink
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("profile not gzipped: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	// An environment without working CPU sampling yields a near-empty
	// profile; nothing to assert then.
	if len(raw) < 256 {
		t.Skipf("profiler collected no samples (%d bytes)", len(raw))
	}
	for _, key := range []string{PhaseLabelKey, WorkerLabelKey, BlockLabelKey, "labeltest"} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("profile lacks label %q", key)
		}
	}
}
