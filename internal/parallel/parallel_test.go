package parallel

import (
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

func TestForWorkersSingle(t *testing.T) {
	order := []int{}
	ForWorkers(5, 1, func(i int) { order = append(order, i) })
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
	ForWorkers(3, 64, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times", i, got)
		}
	}
}

func TestForWorkersZeroIndices(t *testing.T) {
	ran := false
	ForWorkers(0, 4, func(int) { ran = true })
	if ran {
		t.Error("fn ran for n == 0")
	}
	ForWorkers(-1, 4, func(int) { ran = true })
	if ran {
		t.Error("fn ran for n < 0")
	}
}

func TestForWorkersExceedingN(t *testing.T) {
	var count atomic.Int32
	ForWorkers(3, 100, func(i int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("ran %d iterations", count.Load())
	}
}

func TestForWorkersNegativeWorkers(t *testing.T) {
	var count atomic.Int32
	ForWorkers(5, -2, func(i int) { count.Add(1) })
	if count.Load() != 5 {
		t.Errorf("ran %d iterations", count.Load())
	}
}
