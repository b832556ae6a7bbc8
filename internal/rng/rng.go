// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulators.
//
// All randomness in this repository flows through rng.Source so that every
// simulation, experiment, and test is exactly reproducible from a seed.
// The generator is xoshiro256** seeded via splitmix64, following the
// reference implementations by Blackman and Vigna. Independent streams for
// concurrent node goroutines are derived with Split, which uses splitmix64
// jumps so derived streams do not overlap in practice.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; derive one Source per goroutine with Split.
//
//lint:owner goroutine each goroutine owns its own stream, derived with Split
type Source struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next splitmix64 output. It is used
// for seeding and for deriving child streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give independent
// sequences; the same seed always gives the same sequence.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets s to the stream New(seed) returns, in place: a Source held
// by value (one per node in a simulator's per-node record) is seeded
// without a heap allocation.
func (s *Source) Seed(seed uint64) {
	x := seed
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// xoshiro256** must not be seeded with the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives a new, effectively independent Source from s. The parent
// advances, so successive Split calls yield distinct children.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xd2b74407b1ce6e93)
}

// DeriveSeed mixes base with the given parts through splitmix64 and
// returns a child seed. It is the one sanctioned way to derive per-cell
// seeds for parameter sweeps: unlike additive arithmetic such as
// `base + uint64(sigma*1000)`, distinct part tuples cannot collide by
// landing on the same sum, and every part perturbs all 64 output bits.
// Float-valued sweep parameters should be passed through
// math.Float64bits so distinct values map to distinct parts.
//
// "One sanctioned way" is machine-checked: econlint's seedflow analyzer
// flags any additive/xor-derived seed reaching rng.New, a Seed field, or
// a seed-named parameter elsewhere in the repo (DESIGN.md §5, rule 8).
//
// The derivation is pure (base is not a stream and does not advance), so
// cells of a sweep may derive their seeds concurrently and in any order.
func DeriveSeed(base uint64, parts ...uint64) uint64 {
	x := base
	h := splitmix64(&x)
	for _, p := range parts {
		x = h ^ p
		h = splitmix64(&x)
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0. Exp(+Inf) returns 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	if math.IsInf(rate, 1) {
		return 0
	}
	// 1-Float64() is in (0,1], so Log never sees zero.
	return -math.Log(1-s.Float64()) / rate
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Geometric returns the number of Bernoulli(p) trials up to and including
// the first success (support 1, 2, ...). It panics if p <= 0 or p > 1.
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric with p outside (0, 1]")
	}
	if p == 1 { //lint:allow floateq exact edge case: log(1-p) would be -Inf
		return 1
	}
	// Inversion: ceil(ln U / ln(1-p)).
	u := 1 - s.Float64() // in (0, 1]
	n := int(math.Ceil(math.Log(u) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

// Normal returns a standard normally distributed value (Marsaglia polar).
func (s *Source) Normal() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, as in math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
