// Package parallel provides the small work-distribution substrate used by
// every compute-heavy stage of the FRaC reproduction: parallel-for loops
// over index ranges (For, ForWorkers), their cancellable, panic-recovering
// variants with optional per-worker state (ForWorkersErr,
// ForWorkersWithStateErr), and a shared compute Limit.
//
// FRaC's normalized surprisal is "a giant sum" (paper §I.A.1): every term is
// an independent train-and-score problem, so the natural parallel structure
// is a flat fan-out over features. The worker bound keeps concurrent model
// trainings at the machine width so memory stays proportional to the number
// of workers rather than the number of features.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers is the default parallel width; it can be lowered per call.
func maxWorkers() int { return runtime.GOMAXPROCS(0) }

// For runs fn(i) for every i in [0, n), distributing indices over up to
// GOMAXPROCS goroutines via an atomic counter (dynamic load balancing, which
// matters because per-feature model trainings have skewed costs). It returns
// after all iterations complete. fn must be safe for concurrent invocation
// on distinct indices.
func For(n int, fn func(i int)) {
	ForWorkers(n, maxWorkers(), fn)
}

// ForWorkers is For with an explicit worker bound (values < 1 mean 1).
func ForWorkers(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
