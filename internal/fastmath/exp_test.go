package fastmath

import (
	"math"
	"testing"
)

// TestExpMaxRelativeError pins the approximation bound the package comment
// promises: across the clamp-relevant range, Exp stays within 1e-11 relative
// of math.Exp. The grid is dense around 0 (the annealer's exponents cluster
// there) and strides across the full reduced range so every table entry and
// both reduction branches are exercised.
func TestExpMaxRelativeError(t *testing.T) {
	maxRel := 0.0
	worst := 0.0
	check := func(x float64) {
		got := Exp(x)
		want := math.Exp(x)
		if want == 0 {
			if got != 0 {
				t.Fatalf("Exp(%g) = %g, math.Exp = 0", x, got)
			}
			return
		}
		rel := math.Abs(got-want) / want
		if rel > maxRel {
			maxRel, worst = rel, x
		}
	}
	for x := -700.0; x <= 20; x += 0.000977 {
		check(x)
	}
	for x := -2.0; x <= 0; x += 1e-6 {
		check(x)
	}
	t.Logf("max relative error %.3g at x = %.9f", maxRel, worst)
	if maxRel > 1e-11 {
		t.Errorf("max relative error %.3g at x=%g exceeds the 1e-11 bound", maxRel, worst)
	}
}

// TestExpSpecialValues checks the delegated edges: non-finite arguments and
// the overflow/underflow ranges must behave exactly like math.Exp.
func TestExpSpecialValues(t *testing.T) {
	cases := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1),
		709.7, 709.9, 710, 1000, 1e308, // overflow edge and beyond
		-708.3, -709, -745, -746, -1000, // underflow through subnormals to 0
		-745.2, -744.9,
	}
	for _, x := range cases {
		got, want := Exp(x), math.Exp(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Errorf("Exp(%g) = %g, want NaN", x, got)
			}
			continue
		}
		if got != want {
			t.Errorf("Exp(%g) = %g, math.Exp = %g", x, got, want)
		}
	}
}

// TestExpMonotoneNearClamp spot-checks that the approximation never returns
// a negative or zero probability inside the annealer's clamped range — the
// Boltzmann comparison r < Exp(x) relies on Exp being positive there.
func TestExpPositiveInClampedRange(t *testing.T) {
	for x := -700.0; x <= 0; x += 0.1 {
		if v := Exp(x); !(v > 0) {
			t.Fatalf("Exp(%g) = %g, want > 0", x, v)
		}
	}
}

func BenchmarkExp(b *testing.B) {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = -20 * float64(i) / float64(len(xs))
	}
	b.Run("fastmath", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += Exp(xs[i&1023])
		}
		sink = s
	})
	b.Run("math", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += math.Exp(xs[i&1023])
		}
		sink = s
	})
}

var sink float64
