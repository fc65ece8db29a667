// Package parallel provides the small work-distribution substrate used by
// every compute-heavy stage of the FRaC reproduction: parallel-for loops
// over index ranges (For), their cancellable, panic-recovering form with
// optional per-worker state (ForWorkersErr, ForWorkersWithStateErr), and a
// shared compute Limit.
//
// FRaC's normalized surprisal is "a giant sum" (paper §I.A.1): every term is
// an independent train-and-score problem, so the natural parallel structure
// is a flat fan-out over features. The worker bound keeps concurrent model
// trainings at the machine width so memory stays proportional to the number
// of workers rather than the number of features.
package parallel

import (
	"context"
	"runtime"
)

// maxWorkers is the default parallel width; it can be lowered per call.
func maxWorkers() int { return runtime.GOMAXPROCS(0) }

// For runs fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines with
// dynamic load balancing (per-feature work has skewed costs). It returns
// after all iterations complete. fn must be safe for concurrent invocation
// on distinct indices. A panic in fn stops the loop from claiming further
// indices and is re-raised in the caller's goroutine as a *PanicError.
func For(n int, fn func(i int)) {
	err := ForWorkersErr(context.Background(), n, maxWorkers(), func(i int) error {
		fn(i)
		return nil
	})
	if err != nil {
		panic(err)
	}
}
