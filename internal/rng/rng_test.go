package rng

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed, different streams")
		}
	}
	if New(1).Int63() == New(2).Int63() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestZeroSeedWellDefined(t *testing.T) {
	a, b := New(0), New(0)
	if a.Int63() != b.Int63() {
		t.Fatal("zero seed not reproducible")
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	r := New(7)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const trials = 30000
	for i := 0; i < trials; i++ {
		c := WeightedChoice(r, weights)
		if c < 0 || c > 2 {
			t.Fatalf("choice out of range: %d", c)
		}
		counts[c]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	p0 := float64(counts[0]) / trials
	if math.Abs(p0-0.25) > 0.02 {
		t.Fatalf("P(0) = %.3f, want 0.25", p0)
	}
}

func TestWeightedChoiceEdgeCases(t *testing.T) {
	r := New(1)
	if WeightedChoice(r, nil) != -1 {
		t.Fatal("empty weights should return -1")
	}
	if WeightedChoice(r, []float64{0, 0}) != -1 {
		t.Fatal("all-zero weights should return -1")
	}
	if WeightedChoice(r, []float64{-5, 2}) != 1 {
		t.Fatal("negative weights should be skipped")
	}
	if WeightedChoice(r, []float64{7}) != 0 {
		t.Fatal("single positive weight should be chosen")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	p := make([]int, 50)
	Perm(r, p)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPick(t *testing.T) {
	r := New(5)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick never chose some element: %v", seen)
	}
}

func BenchmarkWeightedChoice(b *testing.B) {
	r := New(9)
	weights := make([]float64, 256)
	for i := range weights {
		weights[i] = r.Float64() * 10
	}
	s := 0
	for i := 0; i < b.N; i++ {
		s += WeightedChoice(r, weights)
	}
	benchSink = s
}

var benchSink int

// TestSplitmixDeterminismAndRange: same seed, same stream; draws land in
// [0, n) for awkward bounds; distinct seeds decorrelate immediately.
func TestSplitmixDeterminismAndRange(t *testing.T) {
	a, b := NewSplitmix(42), NewSplitmix(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: same seed diverged: %d vs %d", i, x, y)
		}
	}
	c := NewSplitmix(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 42/43 collided on %d of 1000 draws", same)
	}
	for _, n := range []int{1, 2, 3, 7, 10000, 1 << 30, 1<<31 - 1} {
		s := NewSplitmix(7)
		for i := 0; i < 2000; i++ {
			if v := s.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

// TestSplitmixIntnCoverage: the reduction must reach every residue of a
// small modulus with roughly uniform frequency, not alias onto a subset.
func TestSplitmixIntnCoverage(t *testing.T) {
	const n, draws = 32, 64000
	var hist [n]int
	s := NewSplitmix(2026)
	for i := 0; i < draws; i++ {
		hist[s.Intn(n)]++
	}
	for v, c := range hist {
		if c < draws/n/2 || c > draws/n*2 {
			t.Fatalf("value %d drawn %d times, expected about %d", v, c, draws/n)
		}
	}
}
