package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"frac"
)

// A server that stalls once must show the stall on every request queued
// behind it, because latency runs from each request's due time.
func TestOpenLoopShowsStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	send := func(conn, i int) (int, []byte, error) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return 0, nil, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil, nil
	}
	sched := poissonSchedule(frac.NewRNG(1).Stream("stall"), 100, time.Second)
	samples, err := openLoop(sched, 1, time.Second, send)
	if err != nil {
		t.Fatal(err)
	}
	stallEnd := samples[0].due.Add(stall)
	behind := 0
	for i := 1; i < len(samples); i++ {
		s := samples[i]
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if !s.due.Before(stallEnd.Add(-50 * time.Millisecond)) {
			continue
		}
		behind++
		// Queued behind the stall: timed from its due time, the request
		// carries the rest of the stall, although its own round trip was
		// quick.
		if got, want := s.done.Sub(s.due), stallEnd.Sub(s.due); got < want {
			t.Errorf("request %d due %v before the stall ended reports %v", i, want, got)
		}
		if rt := s.done.Sub(s.sent); rt > 100*time.Millisecond {
			t.Errorf("request %d: round trip %v, want it quick once sent", i, rt)
		}
	}
	if behind < 10 {
		t.Fatalf("only %d requests were due during the stall; want at least 10", behind)
	}
	lat, err := summarize(latencies(samples))
	if err != nil {
		t.Fatal(err)
	}
	if lat.tail < float64(stall/2)/1e6 {
		t.Errorf("tail %.1f ms hides a %v stall", lat.tail, stall)
	}
}

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		p    float64
		ok   bool
	}{
		{n: 20, ok: false},
		{n: 21, k: 11, p: 100 * 11.0 / 21, ok: true},
		{n: 100, k: 90, p: 90, ok: true},
		{n: 300, k: 290, p: 100 * 290.0 / 300, ok: true},
		{n: 1000, k: 990, p: 99, ok: true},
		{n: 2000, k: 1980, p: 99, ok: true}, // capped at p99: 20 beyond
	} {
		k, p, ok := tailRank(tc.n)
		if ok != tc.ok || k != tc.k || math.Abs(p-tc.p) > 1e-9 {
			t.Errorf("tailRank(%d) = %d, %v, %v; want %d, %v, %v", tc.n, k, p, ok, tc.k, tc.p, tc.ok)
		}
		if ok && tc.n-k < minBeyond {
			t.Errorf("tailRank(%d) leaves %d samples beyond, want >= %d", tc.n, tc.n-k, minBeyond)
		}
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	s, err := summarize(lat)
	if err != nil {
		t.Fatal(err)
	}
	if s.n != 100 || s.p50 != 50 || s.tail != 90 || s.beyond != 10 {
		t.Errorf("summary %+v; want n=100 p50=50 tail=90 beyond=10", s)
	}
	for i := 85; i < 100; i++ {
		lat[i] = math.Inf(1) // failed requests
	}
	if s, _ = summarize(lat); !math.IsInf(s.tail, 1) {
		t.Errorf("15 failures in 100 left the tail at %v", s.tail)
	}
	if _, err := summarize(lat[:20]); err == nil {
		t.Error("20 samples cannot support a tail with 10 beyond it")
	}
}

// One stalled segment must not fail a rate the other segments meet, and a
// phase whose segments mostly miss must fail.
func TestJudgeTakesMedianSegmentTail(t *testing.T) {
	t0 := time.Now()
	segment := func(latMs float64) []sample {
		seg := make([]sample, 50)
		for i := range seg {
			seg[i].due = t0
			seg[i].done = t0.Add(time.Duration(latMs * float64(time.Millisecond)))
		}
		return seg
	}
	r, err := judge(100, 50, [][]sample{segment(5), segment(500), segment(6)})
	if err != nil {
		t.Fatal(err)
	}
	if !r.pass || r.tail != 6 || r.lat.tail != 500 {
		t.Errorf("one stalled segment: %+v; want a pass on the 6 ms median tail", r)
	}
	if r, _ = judge(100, 50, [][]sample{segment(5), segment(500), segment(400)}); r.pass {
		t.Errorf("two stalled segments of three passed: %+v", r)
	}
}

func TestGoodputInterpolatesBracket(t *testing.T) {
	// Tail latency doubles with every 25% of rate: 10 ms at 100/s.
	tailMs := func(rate float64) float64 { return 10 * math.Pow(2, math.Log(rate/100)/math.Log(1.25)) }
	t0 := time.Now()
	var rounds []int
	run := func(rate float64, round int) ([]sample, error) {
		rounds = append(rounds, round)
		seg := make([]sample, 50)
		for i := range seg {
			seg[i].due = t0
			seg[i].done = t0.Add(time.Duration(tailMs(rate) * float64(time.Millisecond)))
		}
		return seg, nil
	}
	fixed := probeResult{rate: 100, tail: tailMs(100), pass: true}
	got, results, err := goodput([]probeResult{fixed}, 50, gridRates(100, 3), 2, run)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * math.Pow(1.25, math.Log2(5)) // where the tail reaches 50 ms
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("goodput %v, want %v (results %+v)", got, want, results)
	}
	if len(results) != 4 {
		t.Errorf("%d rates judged, want the fixed phase plus 3 probes", len(results))
	}
	// Rates take turns within a round.
	if fmt.Sprint(rounds) != "[0 0 0 1 1 1]" {
		t.Errorf("segments ran in rounds %v, want each rate once per round", rounds)
	}
	// A fixed phase that fails bounds goodput from above.
	fixed = probeResult{rate: 200, tail: tailMs(200), pass: false}
	if got, _, _ = goodput([]probeResult{{rate: 50, tail: tailMs(50), pass: true}, fixed}, 50, nil, 0, run); got <= 50 || got >= 200 {
		t.Errorf("bracket (50, 200): goodput %v", got)
	}
}

func TestSelfTimeSubtractsCoveredUnion(t *testing.T) {
	s := newSpanStore()
	at := func(ms int) time.Time { return s.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := s.add("r", "bench.replicate", 0, at(0), at(100))
	train := s.add("r", "core.train", root, at(0), at(80))
	// Two workers' terms overlap in time; the fit nests under its term.
	s.add("r", "core.term_train", train, at(10), at(50))
	s.add("r", "core.term_train", train, at(30), at(70))
	s.addUnder("r", "tree.fit", "core.term_train", at(12), at(20))
	s.resolveParents()
	self := s.selfTimes()
	want := []int64{20, 20, 32, 40, 8} // ms
	for i, w := range want {
		if got := self[i] / int64(time.Millisecond); got != w {
			t.Errorf("span %s self %d ms, want %d", s.spans[i].Name, got, w)
		}
	}
}
