package spectral

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
)

func TestBisectDumbbell(t *testing.T) {
	g := graph.Dumbbell(10, 10, 2)
	for _, solver := range []Solver{Lanczos, RQI} {
		p, err := Partition(g, 2, Options{Solver: solver, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if p.CrossingWeight() != 2 {
			t.Fatalf("%v: crossing = %g, want 2 (the bridge)", solver, p.CrossingWeight())
		}
		if p.PartSize(0) != 10 || p.PartSize(1) != 10 {
			t.Fatalf("%v: sizes %d/%d", solver, p.PartSize(0), p.PartSize(1))
		}
	}
}

func TestBisectPathMiddle(t *testing.T) {
	g := graph.Path(20)
	p, err := Partition(g, 2, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.CrossingWeight() != 1 {
		t.Fatalf("crossing = %g, want 1", p.CrossingWeight())
	}
	// The Fiedler vector of a path is monotone, so the parts must be the
	// two contiguous halves.
	side0 := p.Part(0)
	for v := 1; v < 10; v++ {
		if p.Part(v) != side0 {
			t.Fatalf("first half not contiguous at %d", v)
		}
	}
}

func TestRecursiveBisection8PartsGrid(t *testing.T) {
	g := graph.Grid2D(12, 12)
	p, err := Partition(g, 8, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 8 {
		t.Fatalf("NumParts = %d", p.NumParts())
	}
	if imb := objective.Imbalance(p); imb > 0.25 {
		t.Fatalf("imbalance %.3f", imb)
	}
	// A 12x12 grid cut into 8 blocks should cost far less than random
	// (random 8-way expects ~7/8 of 264 edges crossing).
	if p.CrossingWeight() > 90 {
		t.Fatalf("crossing %g too large for spectral on a grid", p.CrossingWeight())
	}
}

func TestOctasectionGrid(t *testing.T) {
	g := graph.Grid2D(12, 12)
	p, err := Partition(g, 8, Options{Arity: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 8 {
		t.Fatalf("NumParts = %d", p.NumParts())
	}
	if p.CrossingWeight() > 110 {
		t.Fatalf("octasection crossing %g too large", p.CrossingWeight())
	}
}

func TestKLImprovesOrMatchesSpectral(t *testing.T) {
	g := graph.RandomGeometric(120, 0.18, 5)
	plain, err := Partition(g, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kl, err := Partition(g, 4, Options{KL: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if kl.CrossingWeight() > plain.CrossingWeight()+1e-9 {
		t.Fatalf("KL worsened: %g -> %g", plain.CrossingWeight(), kl.CrossingWeight())
	}
}

func TestNonPowerOfTwoK(t *testing.T) {
	g := graph.Grid2D(9, 9)
	for _, k := range []int{3, 5, 6} {
		p, err := Partition(g, k, Options{Seed: 6})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.NumParts() != k {
			t.Fatalf("k=%d: NumParts = %d", k, p.NumParts())
		}
	}
}

func TestRQIOctasection(t *testing.T) {
	g := graph.Grid2D(10, 10)
	p, err := Partition(g, 8, Options{Solver: RQI, Arity: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 8 {
		t.Fatalf("NumParts = %d", p.NumParts())
	}
}

func TestErrors(t *testing.T) {
	g := graph.Path(4)
	if _, err := Partition(g, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Partition(g, 9, Options{}); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := Partition(g, 2, Options{Arity: 3}); err == nil {
		t.Fatal("arity 3 accepted")
	}
}

func TestSolverString(t *testing.T) {
	if Lanczos.String() != "Lanc" || RQI.String() != "RQI" {
		t.Fatal("solver names changed; Table 1 labels depend on them")
	}
}

func TestSmallGraphDegenerate(t *testing.T) {
	g := graph.Path(3)
	p, err := Partition(g, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 3 {
		t.Fatalf("NumParts = %d", p.NumParts())
	}
}
