package resource

import (
	"sync"
	"testing"
	"time"
)

func TestTrackerPeakAccounting(t *testing.T) {
	tr := NewTracker()
	tr.Alloc(100)
	tr.Alloc(50)
	tr.Release(100)
	tr.Alloc(20)
	if got := tr.PeakBytes(); got != 150 {
		t.Errorf("peak = %d, want 150", got)
	}
	if got := tr.current.Load(); got != 70 {
		t.Errorf("current = %d, want 70", got)
	}
	cost := tr.Stop()
	if cost.PeakBytes != 150 || cost.FinalBytes != 70 {
		t.Errorf("cost = %+v", cost)
	}
}

func TestTrackerConcurrentAlloc(t *testing.T) {
	tr := NewTracker()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Alloc(3)
				tr.Release(3)
			}
		}()
	}
	wg.Wait()
	if got := tr.current.Load(); got != 0 {
		t.Errorf("current = %d after balanced alloc/release", got)
	}
	if tr.PeakBytes() < 3 {
		t.Errorf("peak = %d, want >= 3", tr.PeakBytes())
	}
}

func TestTimeTaskAccumulatesCPU(t *testing.T) {
	tr := NewTracker()
	tr.TimeTask(func() { time.Sleep(10 * time.Millisecond) })
	tr.TimeTask(func() { time.Sleep(10 * time.Millisecond) })
	cost := tr.Stop()
	if cost.CPU < 15*time.Millisecond {
		t.Errorf("CPU = %v, want >= ~20ms", cost.CPU)
	}
}

// TestNilTracker: a nil tracker's Alloc, Release and TimeTask do nothing,
// without panicking, and TimeTask still runs its task.
func TestNilTracker(t *testing.T) {
	var tr *Tracker
	tr.Alloc(100)
	tr.Release(40)
	ran := false
	tr.TimeTask(func() { ran = true })
	if !ran {
		t.Error("TimeTask on a nil tracker did not run its task")
	}
}

func TestCostFrac(t *testing.T) {
	base := Cost{CPU: 100 * time.Second, PeakBytes: 1000}
	c := Cost{CPU: 5 * time.Second, PeakBytes: 50}
	tf, mf := c.Frac(base)
	if tf != 0.05 || mf != 0.05 {
		t.Errorf("Frac = %v, %v", tf, mf)
	}
	tf, mf = c.Frac(Cost{})
	if tf != 0 || mf != 0 {
		t.Error("zero baseline should yield zero fractions")
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{Wall: time.Second, CPU: 2 * time.Second, PeakBytes: 10}
	b := Cost{Wall: time.Second, CPU: time.Second, PeakBytes: 30}
	c := a.Add(b)
	if c.Wall != 2*time.Second || c.CPU != 3*time.Second || c.PeakBytes != 30 {
		t.Errorf("Add = %+v", c)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.00KiB",
		3 << 20: "3.00MiB",
		5 << 30: "5.00GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
