// Package rng provides deterministic random-number utilities shared by the
// stochastic partitioning methods (percolation seeding, simulated annealing,
// ant colony, fusion-fission) and by the synthetic workload generators.
//
// Every algorithm in this repository that uses randomness takes an explicit
// seed and derives all of its choices from a *rand.Rand created here, so runs
// are reproducible bit-for-bit for a given (seed, parameters) pair.
package rng

import "math/rand"

// New returns a deterministic generator for the given seed.
// Seed 0 is mapped to a fixed non-zero constant so that the zero value of an
// options struct still yields a well-defined, reproducible stream.
func New(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 0x5eed5eed5eed
	}
	return rand.New(rand.NewSource(seed))
}

// WeightedChoice returns an index in [0, len(weights)) drawn with probability
// proportional to weights[i]. Negative weights are treated as zero. If the
// total weight is zero (or the slice is empty) it returns -1.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	x := r.Float64() * total
	acc := 0.0
	last := -1
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		last = i
		if x < acc {
			return i
		}
	}
	// Floating-point round-off can leave x marginally above the final
	// accumulator; fall back to the last positive-weight index.
	return last
}

// Perm fills dst with a random permutation of 0..len(dst)-1.
func Perm(r *rand.Rand, dst []int) {
	for i := range dst {
		dst[i] = i
	}
	r.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
}

// Pick returns a uniformly random element of xs. It panics if xs is empty.
func Pick[T any](r *rand.Rand, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// Splitmix is a splitmix64 generator (Steele, Lea & Flood's SplittableRandom
// finalizer): one add and three xor-multiply rounds per draw, an order of
// magnitude cheaper than math/rand's additive-lagged source behind a mutex-free
// *rand.Rand. The annealer draws its proposal-vertex stream from one of these,
// seeded from its main generator, so the per-proposal RNG cost stops showing
// up in profiles while the stream stays a pure function of the run seed.
type Splitmix struct{ state uint64 }

// NewSplitmix returns a splitmix64 stream over the given seed. Any seed is
// fine — the finalizer decorrelates consecutive states — so callers seed it
// with one draw from their main generator.
func NewSplitmix(seed uint64) *Splitmix { return &Splitmix{state: seed} }

// Uint64 returns the next 64-bit draw.
func (s *Splitmix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a draw in [0, n) for 0 < n <= MaxInt32 using Lemire's
// multiply-shift reduction on the high 32 bits: branch-free, no modulo, no
// rejection loop. The reduction is biased by less than n/2^32 (under 3e-6
// for a million-vertex graph) — irrelevant for stochastic proposal sampling,
// which is the only intended use; anything needing exact uniformity should
// keep using a *rand.Rand.
func (s *Splitmix) Intn(n int) int {
	return int((s.Uint64() >> 32) * uint64(n) >> 32)
}

// Float64 returns a draw in [0, 1) with 53 random bits — the same value
// distribution as math/rand's Float64, minus the mutex-free wrapper and
// rejection branch. Used for the annealer's Metropolis acceptance draws.
func (s *Splitmix) Float64() float64 {
	return float64(s.Uint64()>>11) * 0x1p-53
}
