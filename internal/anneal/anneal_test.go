package anneal

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/percolation"
)

func TestAnnealImprovesOverInitialization(t *testing.T) {
	g := graph.RandomGeometric(120, 0.18, 7)
	init, err := percolation.Partition(g, 6, percolation.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	initE := objective.MCut.Evaluate(init)
	res, err := Partition(g, 6, Options{Seed: 7, MaxSteps: 30000, Initial: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy > initE {
		t.Fatalf("SA worsened the percolation start: %g -> %g", initE, res.Energy)
	}
	if res.Best.NumParts() != 6 {
		t.Fatalf("NumParts = %d", res.Best.NumParts())
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealFindsDumbbellCut(t *testing.T) {
	g := graph.Dumbbell(10, 10, 1)
	res, err := Partition(g, 2, Options{Seed: 3, MaxSteps: 20000, Objective: objective.Cut})
	if err != nil {
		t.Fatal(err)
	}
	// Paper convention: Cut counts each crossing edge twice.
	if res.Energy != 2 {
		t.Fatalf("SA cut = %g, want 2 (bridge counted from both sides)", res.Energy)
	}
}

func TestAnnealDeterministicForSeed(t *testing.T) {
	g := graph.Grid2D(8, 8)
	r1, err := Partition(g, 4, Options{Seed: 11, MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Partition(g, 4, Options{Seed: 11, MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Energy != r2.Energy || r1.Steps != r2.Steps {
		t.Fatalf("non-deterministic: %g/%d vs %g/%d", r1.Energy, r1.Steps, r2.Energy, r2.Steps)
	}
}

func TestAnnealRespectsBudget(t *testing.T) {
	g := graph.Grid2D(12, 12)
	start := time.Now()
	_, err := Partition(g, 4, Options{Seed: 1, Budget: 30 * time.Millisecond, MaxSteps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("budget ignored")
	}
}

func TestAnnealTraceMonotone(t *testing.T) {
	g := graph.RandomGeometric(80, 0.2, 5)
	res, err := Partition(g, 4, Options{Seed: 5, MaxSteps: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) < 2 {
		t.Fatal("trace too short")
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Energy > res.Trace[i-1].Energy+1e-9 {
			t.Fatalf("trace not monotone at %d: %g -> %g", i, res.Trace[i-1].Energy, res.Trace[i].Energy)
		}
	}
}

func TestAnnealKeepsAllParts(t *testing.T) {
	g := graph.Cycle(30)
	res, err := Partition(g, 5, Options{Seed: 9, MaxSteps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.NumParts() != 5 {
		t.Fatalf("parts lost: %d", res.Best.NumParts())
	}
	if math.IsInf(res.Energy, 1) {
		t.Fatal("final energy infinite")
	}
}

func TestAnnealErrors(t *testing.T) {
	g := graph.Path(5)
	if _, err := Partition(g, 1, Options{}); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := Partition(g, 9, Options{}); err == nil {
		t.Fatal("k>n accepted")
	}
	other := graph.Path(4)
	otherP, _ := partition.FromAssignment(other, []int32{0, 0, 1, 1}, 2)
	if _, err := Partition(g, 2, Options{Initial: otherP}); err == nil {
		t.Fatal("foreign initial partition accepted")
	}
}

func TestChooseTargetHotPicksStarving(t *testing.T) {
	// 3 parts on a path; part 2 has no internal edges at all.
	g := graph.Path(6)
	p, _ := partition.FromAssignment(g, []int32{0, 0, 1, 1, 2, 1}, 3)
	got := chooseTarget(p, 0, 1.0, 1.0, nil, nil) // hot: never needs rng or scratch
	if got != 2 {
		t.Fatalf("hot target = %d, want the starving part 2", got)
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
		Seed: 3, Budget: time.Minute, MaxSteps: 1 << 30, Initial: init,
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
