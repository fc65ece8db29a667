// Package rng provides deterministic, splittable random number generation
// for the FRaC reproduction. Every stochastic component of the system (data
// synthesis, random filtering, diverse feature subsets, JL projections,
// replicate splits) draws from a named stream derived from a root seed, so
// experiments are reproducible bit-for-bit and independent components do not
// perturb each other's randomness.
//
// Concurrency contract: a *Source is NOT safe for concurrent use — its
// generator state mutates on every draw. Stream derivation (Stream, StreamN,
// StreamAt) reads only the parent's immutable seed, so many goroutines may
// derive child streams from one shared parent concurrently; each goroutine
// then owns its derived Source exclusively. This is how ensemble members and
// sweep cells get independent deterministic randomness without shared state.
package rng

import (
	"math/rand/v2"
)

// splitmix64 advances and mixes a 64-bit state. It is the standard seed
// expander from Steele et al., used here to derive independent stream seeds.
func splitmix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// hash64 folds a byte string into a 64-bit value (FNV-1a core, then mixed).
func hash64(label string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	_, out := splitmix64(h)
	return out
}

// hash64Indexed hashes the byte string label + decimal(idx) — exactly the
// bytes fmt.Sprintf("%s%d", label, idx) would produce — without building the
// string: the index's decimal digits feed the FNV-1a core directly from a
// stack buffer. Wiring generators derive per-index streams through this in
// their hot loops, so the formatting allocation is gone while every derived
// seed stays bit-identical to the Sprintf-based derivation.
func hash64Indexed(label string, idx int) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	var buf [20]byte
	pos := len(buf)
	u := uint64(idx)
	if idx < 0 {
		u = -u // two's-complement magnitude; correct for MinInt too
	}
	if u == 0 {
		pos--
		buf[pos] = '0'
	}
	for u > 0 {
		pos--
		buf[pos] = byte('0' + u%10)
		u /= 10
	}
	if idx < 0 {
		pos--
		buf[pos] = '-'
	}
	for _, b := range buf[pos:] {
		h ^= uint64(b)
		h *= prime
	}
	_, out := splitmix64(h)
	return out
}

// Source is a deterministic random source with stream derivation. It wraps
// the stdlib PCG generator.
type Source struct {
	seed uint64
	rand *rand.Rand
}

// New returns a Source rooted at seed.
func New(seed uint64) *Source {
	s1, out1 := splitmix64(seed)
	_, out2 := splitmix64(s1)
	return &Source{seed: seed, rand: rand.New(rand.NewPCG(out1, out2))}
}

// Seed reports the root seed this source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Stream derives an independent Source identified by label. Two streams with
// distinct labels (or distinct parents) are statistically independent, and a
// stream's output does not depend on how much the parent has been consumed.
func (s *Source) Stream(label string) *Source {
	return New(s.seed ^ hash64(label))
}

// StreamN derives an independent Source identified by label and an index,
// e.g. one stream per ensemble member or per replicate.
func (s *Source) StreamN(label string, n int) *Source {
	_, mixed := splitmix64(uint64(n) + 0x51ed27)
	return New(s.seed ^ hash64(label) ^ mixed)
}

// StreamIndexedN derives the stream StreamN(label+decimal(idx), n) without
// formatting the composite label — allocation-free and bit-identical to
// StreamN(fmt.Sprintf("%s%d", label, idx), n). Use it when a per-element
// stream family is derived inside a hot loop.
func (s *Source) StreamIndexedN(label string, idx, n int) *Source {
	_, mixed := splitmix64(uint64(n) + 0x51ed27)
	return New(s.seed ^ hash64Indexed(label, idx) ^ mixed)
}

// StreamAt derives an independent Source identified by label and a path of
// index components, chaining a splitmix64 round per component (not a plain
// xor, so distinct paths cannot cancel). This is the derivation for streams
// keyed by *identity* rather than slice position — e.g. a term's original
// feature index plus its replica number — which is what makes FRaC outputs
// invariant under reorderings of the work list.
func (s *Source) StreamAt(label string, path ...uint64) *Source {
	h := s.seed ^ hash64(label)
	for _, p := range path {
		_, hp := splitmix64(p + 0x9e3779b97f4a7c15)
		_, h = splitmix64(h ^ hp)
	}
	return New(h)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rand.Float64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rand.Float64()
}

// Norm returns a standard normal variate.
func (s *Source) Norm() float64 { return s.rand.NormFloat64() }

// Normal returns a normal variate with the given mean and standard deviation.
func (s *Source) Normal(mean, sd float64) float64 {
	return mean + sd*s.rand.NormFloat64()
}

// IntN returns a uniform integer in [0, n). n must be > 0.
func (s *Source) IntN(n int) int { return s.rand.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.rand.Uint64() }

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.rand.Float64() < p }

// Rademacher returns +1 or -1 with equal probability.
func (s *Source) Rademacher() float64 {
	if s.rand.Uint64()&1 == 0 {
		return 1
	}
	return -1
}

// Achlioptas returns a draw from the sparse JL distribution of Achlioptas
// (2003): +sqrt(3) w.p. 1/6, -sqrt(3) w.p. 1/6, 0 w.p. 2/3.
func (s *Source) Achlioptas() float64 {
	const root3 = 1.7320508075688772
	switch s.rand.IntN(6) {
	case 0:
		return root3
	case 1:
		return -root3
	default:
		return 0
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rand.Perm(n) }

// Shuffle permutes xs in place.
func (s *Source) Shuffle(xs []int) {
	s.rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SampleK returns k distinct indices drawn uniformly from [0, n), in random
// order. It panics if k > n.
func (s *Source) SampleK(n, k int) []int {
	if k > n {
		panic("rng: SampleK k > n")
	}
	// Partial Fisher-Yates over an index array: O(n) space, O(k) swaps.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.rand.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative and sum to a
// positive value.
func (s *Source) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical needs positive total weight")
	}
	u := s.rand.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
