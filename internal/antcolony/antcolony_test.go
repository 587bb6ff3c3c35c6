package antcolony

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/percolation"
)

func TestColonyImprovesOverInitialization(t *testing.T) {
	g := graph.RandomGeometric(100, 0.2, 4)
	init, err := percolation.Partition(g, 5, percolation.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	initE := objective.MCut.Evaluate(init)
	res, err := Partition(g, 5, Options{Seed: 4, Iterations: 600, Initial: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy > initE {
		t.Fatalf("ACO worsened the percolation start: %g -> %g", initE, res.Energy)
	}
	if res.Best.NumParts() != 5 {
		t.Fatalf("NumParts = %d", res.Best.NumParts())
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestColonyDumbbell(t *testing.T) {
	g := graph.Dumbbell(8, 8, 1)
	res, err := Partition(g, 2, Options{Seed: 2, Iterations: 400, Objective: objective.Cut})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy > 4 {
		t.Fatalf("ACO cut = %g, want near-optimal (2)", res.Energy)
	}
}

func TestColonyDeterministic(t *testing.T) {
	g := graph.Grid2D(7, 7)
	r1, err := Partition(g, 3, Options{Seed: 8, Iterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Partition(g, 3, Options{Seed: 8, Iterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Energy != r2.Energy {
		t.Fatalf("non-deterministic: %g vs %g", r1.Energy, r2.Energy)
	}
}

func TestColonyBudget(t *testing.T) {
	g := graph.Grid2D(10, 10)
	start := time.Now()
	_, err := Partition(g, 4, Options{Seed: 1, Budget: 30 * time.Millisecond, Iterations: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("budget ignored")
	}
}

func TestColonyKeepsKParts(t *testing.T) {
	g := graph.Cycle(24)
	res, err := Partition(g, 4, Options{Seed: 6, Iterations: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.NumParts() != 4 {
		t.Fatalf("parts lost: %d", res.Best.NumParts())
	}
}

func TestColonyErrors(t *testing.T) {
	g := graph.Path(5)
	if _, err := Partition(g, 1, Options{}); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := Partition(g, 6, Options{}); err == nil {
		t.Fatal("k>n accepted")
	}
}

func TestEdgeIDsCoverPheromoneIndex(t *testing.T) {
	// The pheromone fields are dense arrays indexed by edge id: every id
	// ForEachEdgeID reports must be in [0, m) and appear exactly once.
	g := graph.Grid2D(3, 3)
	seen := make([]bool, g.NumEdges())
	g.ForEachEdgeID(func(e, u, v int, w float64) {
		if e < 0 || e >= len(seen) || seen[e] {
			t.Fatalf("edge id %d out of range or repeated", e)
		}
		seen[e] = true
		eu, ev := g.EdgeEndpoints(e)
		if eu != u || ev != v {
			t.Fatalf("edge id %d endpoints (%d,%d), want (%d,%d)", e, eu, ev, u, v)
		}
	})
}

func TestTraceMonotone(t *testing.T) {
	g := graph.RandomGeometric(60, 0.25, 3)
	res, err := Partition(g, 3, Options{Seed: 3, Iterations: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Energy > res.Trace[i-1].Energy+1e-9 {
			t.Fatalf("trace not monotone at %d", i)
		}
	}
}

func TestPartitionContextCancelReturnsBestSoFar(t *testing.T) {
	g := graph.Grid2D(10, 10)
	init, err := percolation.Partition(g, 4, percolation.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := PartitionContext(ctx, g, 4, Options{
		Seed: 3, Budget: time.Minute, Iterations: 1 << 30, Initial: init,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("returned %v after a 50ms cancel", elapsed)
	}
	if !res.Cancelled {
		t.Fatal("interrupted run not marked Cancelled")
	}
	if res.Best == nil || res.Best.NumParts() != 4 {
		t.Fatalf("best-so-far invalid: %+v", res.Best)
	}
}
