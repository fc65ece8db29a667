package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one replicate or one request
// share a trace id; a span's layer is its name up to the first dot. Spans the
// benchmark cannot nest at record time (learner calls made on pool workers)
// carry parent -1 and a parentName, and are nested under the innermost span
// of that name which covers them when the run ends.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Trace      string `json:"trace"`
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	parentName string
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// spanStore keeps a run's spans in memory until the run ends. A nil store
// records nothing, so untraced runs pass nil through the same code.
type spanStore struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanStore() *spanStore { return &spanStore{t0: time.Now()} }

// add records a span and returns its id (0 on a nil store).
func (s *spanStore) add(trace, name string, parent int, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.spans) + 1
	s.spans = append(s.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(s.t0)), End: int64(end.Sub(s.t0))})
	return id
}

// setEnd closes a span opened with add before its children were recorded.
func (s *spanStore) setEnd(id int, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans[id-1].End = int64(end.Sub(s.t0))
}

// duration returns a recorded span's length (0 on a nil store).
func (s *spanStore) duration(id int) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.spans[id-1].End - s.spans[id-1].Start)
}

// addUnder records a span whose parent is the innermost span named
// parentName in the same trace that covers it, resolved when the run ends.
func (s *spanStore) addUnder(trace, name, parentName string, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, span{ID: len(s.spans) + 1, Parent: -1, Trace: trace, Name: name,
		Start: int64(start.Sub(s.t0)), End: int64(end.Sub(s.t0)), parentName: parentName})
}

// timed runs fn inside a span and returns the span's id.
func (s *spanStore) timed(trace, name string, parent int, fn func()) int {
	start := time.Now()
	fn()
	return s.add(trace, name, parent, start, time.Now())
}

// resolveParents nests every parent -1 span under a covering span of its
// parentName. Among covering candidates it prefers one whose children so
// far end before the span starts, so concurrent workers' calls land under
// their own workers' spans. A span no candidate covers becomes a root.
func (s *spanStore) resolveParents() {
	type key struct{ trace, name string }
	cands := map[key][]int{}
	for i, sp := range s.spans {
		cands[key{sp.Trace, sp.Name}] = append(cands[key{sp.Trace, sp.Name}], i)
	}
	for _, list := range cands {
		sort.Slice(list, func(a, b int) bool { return s.spans[list[a]].Start < s.spans[list[b]].Start })
	}
	order := make([]int, 0, len(s.spans))
	for i := range s.spans {
		if s.spans[i].Parent == -1 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return s.spans[order[a]].Start < s.spans[order[b]].Start })
	lastEnd := map[int]int64{} // parent index -> end of its latest child
	for _, i := range order {
		sp := &s.spans[i]
		list := cands[key{sp.Trace, sp.parentName}]
		// Candidates start at or before the span; scan back from the last.
		hi := sort.Search(len(list), func(j int) bool { return s.spans[list[j]].Start > sp.Start })
		chosen := -1
		for j := hi - 1; j >= 0 && j >= hi-64; j-- {
			c := list[j]
			if s.spans[c].End < sp.End {
				continue
			}
			if chosen < 0 {
				chosen = c
			}
			if lastEnd[c] <= sp.Start {
				chosen = c
				break
			}
		}
		sp.Parent = 0
		if chosen >= 0 {
			sp.Parent = s.spans[chosen].ID
			lastEnd[chosen] = sp.End
		}
	}
}

// selfTimes returns each span's duration minus the part of it its children
// cover, indexed like s.spans.
func (s *spanStore) selfTimes() []int64 {
	children := map[int][]int{}
	for i, sp := range s.spans {
		if sp.Parent > 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(s.spans))
	for i, sp := range s.spans {
		var ivs [][2]int64
		for _, c := range children[sp.ID] {
			lo, hi := max(s.spans[c].Start, sp.Start), min(s.spans[c].End, sp.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[i] = sp.End - sp.Start - unionLength(ivs)
	}
	return self
}

func unionLength(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	return total + curHi - curLo
}

// reportTrace nests and writes the spans, prints self time by span name and
// by layer, and sets the self_ms.* and trace.unattributed_ms metrics: self
// time per measured operation (a trace whose root is bench.replicate or
// loadgen.request). The unattributed remainder is the roots' self time:
// the part of a replicate or request that no span below it covers.
func (b *bench) reportTrace(doc specDoc, env, path string) error {
	s := b.spans
	s.resolveParents()
	self := s.selfTimes()

	measured := map[string]bool{}
	for _, sp := range s.spans {
		if sp.Parent == 0 && (sp.Name == "bench.replicate" || sp.Name == "loadgen.request") {
			measured[sp.Trace] = true
		}
	}
	ops := float64(max(len(measured), 1))
	byName := map[string]int64{}
	byLayer := map[string]int64{}
	var unattributed int64
	for i, sp := range s.spans {
		if !measured[sp.Trace] {
			continue
		}
		byName[sp.Name] += self[i]
		byLayer[sp.layer()] += self[i]
		if sp.Parent == 0 {
			unattributed += self[i]
		}
	}
	fmt.Printf("# self time per measured operation (%d operations); spans on concurrent workers add up past wall time:\n", len(measured))
	for _, name := range sortedKeys(byName) {
		fmt.Printf("#   %-24s %10.4f ms\n", name, float64(byName[name])/1e6/ops)
	}
	for _, layer := range sortedKeys(byLayer) {
		fmt.Printf("#   layer %-18s %10.4f ms\n", layer, float64(byLayer[layer])/1e6/ops)
	}
	for _, layer := range []string{"core", "tree", "serve"} {
		b.set("self_ms."+layer, "ms", float64(byLayer[layer])/1e6/ops)
	}
	b.set("trace.unattributed_ms", "ms", float64(unattributed)/1e6/ops)
	fmt.Printf("# unattributed remainder: %.4f ms per operation\n", float64(unattributed)/1e6/ops)

	// A layer this workload does not run reports 0: it did no work there.
	for _, name := range sortedKeys(doc.PerLayer) {
		if _, ok := b.metrics[name]; !ok {
			b.set(name, doc.PerLayer[name].Unit, 0)
			fmt.Printf("# %s: not run by %s, reported as 0\n", name, b.name)
		}
	}
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Env      string `json:"env"`
		Spans    []span `json:"spans"`
	}{b.name, b.seed, env, s.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("# spans: %d written to %s\n", len(s.spans), path)
	return nil
}
