package serve

import (
	"context"
	"testing"

	"frac/internal/core"
)

// BenchmarkServeScore measures the serving hot path gated by benchguard: one
// row submitted through the micro-batcher (pool → enqueue → flush → runtime
// scoring → response). One submitter keeps the queue empty, so every flush
// is a single request and the measurement is the per-request floor.
func BenchmarkServeScore(b *testing.B) {
	path := testModelFile(b, 42)
	h, err := NewHandle("m", path)
	if err != nil {
		b.Fatal(err)
	}
	q := NewBatcher(h, BatcherConfig{MaxBatch: 8, Workers: 1})
	defer q.Close()

	rows := testProbeRows(1)
	out := make([]float64, 1)
	ctx := context.Background()
	if _, err := q.Submit(ctx, rows, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Submit(ctx, rows, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeScoreExplain measures the explained hot path: the same
// one-row submission as BenchmarkServeScore, but with top-4 attribution
// capture threaded through the flush. The delta against BenchmarkServeScore
// is the per-request cost of explanations.
func BenchmarkServeScoreExplain(b *testing.B) {
	path := testModelFile(b, 42)
	h, err := NewHandle("m", path)
	if err != nil {
		b.Fatal(err)
	}
	q := NewBatcher(h, BatcherConfig{MaxBatch: 8, Workers: 1})
	defer q.Close()

	rows := testProbeRows(1)
	out := make([]float64, 1)
	attr := make([][]core.Attribution, 1)
	ctx := context.Background()
	if _, err := q.SubmitExplained(ctx, rows, out, attr, 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.SubmitExplained(ctx, rows, out, attr, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeScoreBatch64 measures the coalesced path: a 64-row request
// through the batcher, amortizing the flush overhead across the batch.
func BenchmarkServeScoreBatch64(b *testing.B) {
	path := testModelFile(b, 42)
	h, err := NewHandle("m", path)
	if err != nil {
		b.Fatal(err)
	}
	q := NewBatcher(h, BatcherConfig{MaxBatch: 64, Workers: 1})
	defer q.Close()

	rows := testProbeRows(64)
	out := make([]float64, 64)
	ctx := context.Background()
	if _, err := q.Submit(ctx, rows, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Submit(ctx, rows, out); err != nil {
			b.Fatal(err)
		}
	}
}
