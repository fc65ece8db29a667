package parallel

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	const n = 1000
	var hits [n]atomic.Int32
	For(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d hit %d times", i, hits[i].Load())
		}
	}
}

// TestForReraisesPanicAsPanicError: a worker panic inside For reaches the
// caller's goroutine as a *PanicError instead of killing the process.
func TestForReraisesPanicAsPanicError(t *testing.T) {
	defer func() {
		v := recover()
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *PanicError", v, v)
		}
		if pe.Value != "boom" {
			t.Errorf("panic value = %v, want boom", pe.Value)
		}
	}()
	For(64, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
	t.Error("For returned normally after a worker panic")
}

func TestForWorkersSingle(t *testing.T) {
	order := []int{}
	if err := ForWorkersErr(context.Background(), 5, 1, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("single worker must run in order, got %v", order)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	ran := false
	For(0, func(int) { ran = true })
	For(-3, func(int) { ran = true })
	if ran {
		t.Error("For should not run for n <= 0")
	}
}

func TestForWorkersMoreWorkersThanIndices(t *testing.T) {
	var hits [3]atomic.Int64
	if err := ForWorkersErr(context.Background(), 3, 64, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times", i, got)
		}
	}
}

func TestForWorkersZeroIndices(t *testing.T) {
	ran := false
	run := func(int) error { ran = true; return nil }
	if err := ForWorkersErr(context.Background(), 0, 4, run); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("fn ran for n == 0")
	}
	if err := ForWorkersErr(context.Background(), -1, 4, run); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("fn ran for n < 0")
	}
}

func TestForWorkersExceedingN(t *testing.T) {
	var count atomic.Int32
	if err := ForWorkersErr(context.Background(), 3, 100, func(int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 3 {
		t.Errorf("ran %d iterations", count.Load())
	}
}

func TestForWorkersNegativeWorkers(t *testing.T) {
	var count atomic.Int32
	if err := ForWorkersErr(context.Background(), 5, -2, func(int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 5 {
		t.Errorf("ran %d iterations", count.Load())
	}
}
