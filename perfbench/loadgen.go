package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"frac"
)

// errNotSent marks a request the generator gave up on: it was still waiting
// for a free connection when the phase's drain deadline passed.
var errNotSent = errors.New("not sent before the drain deadline")

// sample is one open-loop request. Latency is measured from due, the time
// the schedule said to send it, so a stall shows on every request queued
// behind it.
type sample struct {
	index      int
	due        time.Time
	dispatched time.Time // when the generator released it to a connection
	sent, done time.Time
	status     int
	body       []byte
	err        error
}

func (s *sample) latencyMs() float64 {
	if s.err != nil {
		return math.Inf(1)
	}
	return float64(s.done.Sub(s.due)) / 1e6
}

// sender performs request index on connection conn and returns the
// response status and body.
type sender func(conn, index int) (status int, body []byte, err error)

// poissonSchedule draws the due offsets of an open-loop phase: exponential
// gaps with mean 1/rate, for dur.
func poissonSchedule(src *frac.RNG, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-src.Float64()) / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// checkLoad refuses load settings that would give the generator more
// threads or connections than the machine has processors.
func checkLoad(conns int) error {
	n := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p > n {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", p, n)
	}
	if conns < 1 || conns > n {
		return fmt.Errorf("%d connections: want 1 to nproc (%d)", conns, n)
	}
	return nil
}

// openLoop sends one request at each due time of schedule over conns
// connections, whether or not earlier requests have finished: a request due
// while every connection is busy waits for one, and that wait counts in its
// latency. Requests still unsent drain after the schedule ends for at most
// drain, then fail with errNotSent.
func openLoop(schedule []time.Duration, conns int, drain time.Duration, send sender) ([]sample, error) {
	if err := checkLoad(conns); err != nil {
		return nil, err
	}
	samples := make([]sample, len(schedule))
	queue := make(chan int, len(schedule)) // sized to the number of sends: dispatch never blocks
	start := time.Now().Add(2 * time.Millisecond)
	var end time.Time
	if len(schedule) > 0 {
		end = start.Add(schedule[len(schedule)-1] + drain)
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.sent = time.Now()
				if s.sent.After(end) {
					s.err = errNotSent
					continue
				}
				s.status, s.body, s.err = send(conn, i)
				s.done = time.Now()
			}
		}(c)
	}
	for i, off := range schedule {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i].index = i
		samples[i].due = due
		samples[i].dispatched = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples, nil
}

// lateMs returns how far behind its schedule the generator released each
// request, in ms.
func lateMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = float64(samples[i].dispatched.Sub(samples[i].due)) / 1e6
	}
	return out
}

// probeResult is one open-loop phase at a fixed rate, judged against the
// latency limit.
type probeResult struct {
	rate float64
	lat  latencySummary // over all of the phase's requests
	tail float64        // median of the segments' tails, ms
	pass bool
}

// judge decides whether a phase, run as consecutive segments, meets
// limitMs: the median of its segments' tails is within the limit, a failed
// request counting as missing it. Taking the median keeps one stall of the
// host, which lands in one segment, from failing the rate. The limit also
// rules out a growing backlog: at a rate x% above capacity each request
// waits x% of the time elapsed so far longer than the first, which passes
// the limit within every segment longer than the limit over x%.
func judge(rate, limitMs float64, segs [][]sample) (probeResult, error) {
	var all, tails []float64
	for _, seg := range segs {
		lat := latencies(seg)
		s, err := summarize(lat)
		if err != nil {
			return probeResult{}, fmt.Errorf("phase at %.1f/s: %w", rate, err)
		}
		all = append(all, lat...)
		tails = append(tails, s.tail)
	}
	lat, err := summarize(all)
	if err != nil {
		return probeResult{}, fmt.Errorf("phase at %.1f/s: %w", rate, err)
	}
	tail := median(tails)
	return probeResult{rate: rate, lat: lat, tail: tail, pass: tail <= limitMs}, nil
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = samples[i].latencyMs()
	}
	return out
}

// gridStep is the ratio between successive goodput probe rates.
const gridStep = 1.25

// gridRates returns the goodput probe rates above the high fixed rate:
// high times gridStep, gridStep squared, and so on.
func gridRates(high float64, n int) []float64 {
	rates := make([]float64, n)
	for i := range rates {
		high *= gridStep
		rates[i] = high
	}
	return rates
}

// goodput finds the highest open-loop rate whose tail latency meets limitMs
// without a growing backlog. It runs each probe rate for rounds segments,
// taking the rates in turn within every round, so every rate sees the same
// stretches of the machine's speed and the bracket they form is consistent
// within a run. Each rate, and each of the fixed phases in judged, is then
// judged on its segments' median tail; goodput is read off the bracket
// between the highest passing rate below the lowest failing one, by
// interpolating log tail latency against log rate. Without a failing rate
// it is the highest passing rate; without a passing one, 0.
func goodput(judged []probeResult, limitMs float64, rates []float64, rounds int,
	run func(rate float64, round int) ([]sample, error)) (float64, []probeResult, error) {
	segs := make([][][]sample, len(rates))
	for round := 0; round < rounds; round++ {
		for i, rate := range rates {
			seg, err := run(rate, round)
			if err != nil {
				return 0, nil, err
			}
			segs[i] = append(segs[i], seg)
		}
	}
	results := append([]probeResult(nil), judged...)
	for i, rate := range rates {
		r, err := judge(rate, limitMs, segs[i])
		if err != nil {
			return 0, nil, err
		}
		results = append(results, r)
	}
	sort.Slice(results, func(a, b int) bool { return results[a].rate < results[b].rate })
	var pass, fail probeResult
	for _, r := range results {
		if !r.pass {
			fail = r
			break
		}
		pass = r
	}
	if pass.rate == 0 || fail.rate == 0 || fail.tail <= math.Max(limitMs, pass.tail) {
		return pass.rate, results, nil
	}
	f := math.Log(limitMs/pass.tail) / math.Log(fail.tail/pass.tail)
	f = math.Min(math.Max(f, 0), 1)
	return pass.rate * math.Pow(fail.rate/pass.rate, f), results, nil
}
