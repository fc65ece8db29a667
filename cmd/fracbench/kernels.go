// The `kernels` exhibit: linalg kernel microbenchmarks reported as median
// ns/op and effective bandwidth (GB/s) at each vector length, covering both
// kernel tiers (exact-order and fast reassociated).
// Unlike the table/figure exhibits these are hand-rolled timing loops —
// nanosecond-scale kernels need batched calls, not whole-pass wall timing.
package main

import (
	"fmt"
	"sort"
	"time"

	"frac/internal/linalg"
)

// kernelSizes is the vector-length grid: the feature counts the
// BenchmarkTrainDataset sweep uses plus the next doubling.
var kernelSizes = [...]int{64, 256, 1024, 4096}

// kernelCost is one kernels-exhibit row: the median per-call time of one
// kernel at one vector length, and the effective memory bandwidth implied by
// the bytes the kernel touches per call.
type kernelCost struct {
	Kernel string  `json:"kernel"`
	N      int     `json:"n"`
	NsOp   float64 `json:"ns_op"`
	GBps   float64 `json:"gb_s"`
}

// kernelSink keeps the timed loops from being dead-code-eliminated.
var kernelSink float64

// timeKernel returns the median per-call nanoseconds of fn over `passes`
// timed batches of `reps` calls each, after one discarded warmup batch.
func timeKernel(reps, passes int, fn func(reps int)) float64 {
	fn(reps)
	times := make([]float64, passes)
	for p := range times {
		start := time.Now()
		fn(reps)
		times[p] = float64(time.Since(start).Nanoseconds()) / float64(reps)
	}
	sort.Float64s(times)
	return times[passes/2]
}

// runKernels times every linalg kernel at every grid size, prints the table,
// and replaces the Kernels section of the results document.
func runKernels(b *bench) error {
	const (
		passes    = 5
		batchOps  = 8 << 20 // element-ops per timed batch
		bytesF64  = 8
		skipWidth = 1 // skip kernels touch n-1 elements
	)
	b.doc.Kernels = b.doc.Kernels[:0]
	fmt.Fprintf(b.opts.Out, "Linalg kernel grid (median of %d batches)\n", passes)
	fmt.Fprintf(b.opts.Out, "%-14s %6s %10s %8s\n", "kernel", "n", "ns/op", "GB/s")
	for _, n := range kernelSizes {
		if err := b.opts.Ctx.Err(); err != nil {
			return err
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) * 0.25
			y[i] = float64(i%5) * 0.5
		}
		skip := n / 2
		m := n - skipWidth
		specs := []struct {
			name  string
			bytes int64 // memory touched per call (reads + writes)
			run   func(reps int)
		}{
			{"Dot", int64(2 * bytesF64 * n), func(reps int) {
				for r := 0; r < reps; r++ {
					kernelSink += linalg.Dot(x, y)
				}
			}},
			{"DotSkip", int64(2 * bytesF64 * m), func(reps int) {
				for r := 0; r < reps; r++ {
					kernelSink += linalg.DotSkip(x, y, skip)
				}
			}},
			{"Axpy", int64(3 * bytesF64 * n), func(reps int) {
				for r := 0; r < reps; r++ {
					linalg.Axpy(1e-9, x, y)
				}
			}},
			{"AxpySkip", int64(3 * bytesF64 * m), func(reps int) {
				for r := 0; r < reps; r++ {
					linalg.AxpySkip(1e-9, x, y, skip)
				}
			}},
			{"SqNormSkip", int64(bytesF64 * m), func(reps int) {
				for r := 0; r < reps; r++ {
					kernelSink += linalg.SqNormSkip(x, skip)
				}
			}},
			{"DotFast", int64(2 * bytesF64 * n), func(reps int) {
				for r := 0; r < reps; r++ {
					kernelSink += linalg.DotFast(x, y)
				}
			}},
			{"SqDist", int64(2 * bytesF64 * n), func(reps int) {
				for r := 0; r < reps; r++ {
					kernelSink += linalg.SqDist(x, y)
				}
			}},
		}
		reps := batchOps / n
		if reps < 1 {
			reps = 1
		}
		for _, s := range specs {
			ns := timeKernel(reps, passes, s.run)
			gbs := float64(s.bytes) / ns // bytes per ns == GB/s
			b.doc.Kernels = append(b.doc.Kernels, kernelCost{
				Kernel: s.name, N: n, NsOp: ns, GBps: gbs,
			})
			fmt.Fprintf(b.opts.Out, "%-14s %6d %10.1f %8.1f\n", s.name, n, ns, gbs)
		}
	}
	return nil
}
