// Package fastmath provides an error-bounded polynomial exponential for the
// Metropolis/sigmoid hot paths. math.Exp's table-free Cody-Waite kernel ends
// in a division and a chain of fixups that together dominate the annealer's
// acceptance arithmetic once the rest of the proposal loop is cheap (see
// BENCH_anneal.json); Exp below replaces it with a 32-entry octave table and
// a degree-4 polynomial — no division, no branches on the accept path — at a
// maximum relative error of a few 1e-12 (TestExpMaxRelativeError pins the
// bound against math.Exp). Acceptance decisions compare Exp against a
// uniform draw, so a run differs from one using math.Exp only when that draw
// lands within the approximation error of the threshold (~1e-12 per uphill
// proposal).
package fastmath

import "math"

const (
	// invLn2x32 = 32/ln 2: scales x so the rounded product selects one of 32
	// subintervals per octave.
	invLn2x32 = 32 / math.Ln2
	// ln2o32Hi/Lo split ln2/32 so that k*ln2o32Hi is exact for |k| < 2^15
	// (the hi part carries ~33 significant bits — math.Exp's own Ln2Hi
	// scaled by a power of two) and the lo part restores the dropped tail.
	ln2o32Hi = 6.93147180369123816490e-01 / 32
	ln2o32Lo = 1.90821492927058770002e-10 / 32
	// expOverflow/expUnderflow bound the bit-twiddled 2^e scaling below to
	// normal results; outside, Exp defers to math.Exp for the exact
	// overflow/subnormal/zero behavior (never on the annealer's hot path,
	// whose exponents are clamped to [-700, 0]).
	expOverflow  = 709.0
	expUnderflow = -708.0
	// smallX bounds the reduction-free path: for |x| < 2^-7 the degree-4
	// Taylor polynomial in x itself has remainder |x|^5/5! < 2.5e-13
	// relative — inside the committed error bound with no table lookup, no
	// rounding, and a critical path of four FP operations. The Metropolis
	// argument -delta/T sits in this range for nearly every uphill proposal
	// of the hot phase (deltas are per-part normalized ratios), so this is
	// the branch the annealer takes.
	smallX = 1.0 / 128
)

// exp2tab[j] holds 2^(j/32), the octave subdivision the range reduction
// lands on. 256 bytes: two cache lines, resident for the whole run.
var exp2tab = func() [32]float64 {
	var t [32]float64
	for j := range t {
		t[j] = math.Exp2(float64(j) / 32)
	}
	return t
}()

// Exp returns e**x with a maximum relative error of a few 1e-12 against
// math.Exp (the committed test bound is 1e-11). Arguments outside
// (-708, 709) and non-finite arguments are delegated to math.Exp, so
// overflow to +Inf, underflow through the subnormals to 0, and NaN
// propagation are all exactly math.Exp's.
func Exp(x float64) float64 {
	if math.Abs(x) < smallX { // NaN compares false, falls to the guard below
		// Degree-4 Taylor straight in x, Estrin-paired so the two halves
		// evaluate concurrently instead of serializing through a Horner
		// chain (Go does not fuse FP ops, so chain length is latency).
		x2 := x * x
		return (1 + x) + x2*((0.5+x*(1.0/6))+x2*(1.0/24))
	}
	if !(x > expUnderflow && x < expOverflow) { // also catches NaN
		return math.Exp(x)
	}
	// Range reduction: x = k*(ln2/32) + r with |r| <= ln2/64 + 1ulp.
	kf := math.RoundToEven(x * invLn2x32)
	r := (x - kf*ln2o32Hi) - kf*ln2o32Lo
	// exp(r) by degree-4 Taylor: |r|^5/5! < 1.3e-12 relative on the reduced
	// interval, below the rounding noise of the evaluation itself. Estrin
	// pairing halves the dependent-chain length vs Horner.
	r2 := r * r
	p := (1 + r) + r2*((0.5+r*(1.0/6))+r2*(1.0/24))
	k := int64(kf)
	// exp(x) = 2^(k>>5) * 2^((k&31)/32) * exp(r); the 2^e scaling is an
	// exponent-field add, exact because the argument clamp keeps the result
	// normal.
	v := exp2tab[k&31] * p
	return math.Float64frombits(math.Float64bits(v) + uint64(k>>5)<<52)
}
