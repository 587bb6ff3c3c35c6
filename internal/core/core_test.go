package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/percolation"
	"repro/internal/rng"
)

// partitionWithCapacity rebuilds an assignment with full (n) part capacity,
// the shape fusion-fission needs so atoms can split into fresh slots.
func partitionWithCapacity(g *graph.Graph, assign []int32) (*partition.P, error) {
	return partition.FromAssignment(g, assign, g.NumVertices())
}

func TestLawsSimplexInvariant(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		l := newLaws(40)
		for step := 0; step < 500; step++ {
			kind := lawKind(r.Intn(2))
			size := r.Intn(41)
			m := admissible(kind, size)
			if m == 0 {
				continue
			}
			j := r.Intn(m + 1)
			l.update(kind, size, j, r.Intn(2) == 0, 0.04)
			probs := l.probs(kind, size)
			total := 0.0
			for i := 0; i <= m; i++ {
				if probs[i] <= 0 || probs[i] >= 1 {
					return false
				}
				total += probs[i]
			}
			for i := m + 1; i <= maxEject; i++ {
				if probs[i] != 0 {
					return false
				}
			}
			if math.Abs(total-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLawsLearning(t *testing.T) {
	l := newLaws(20)
	before := l.probs(lawFusion, 10)[1]
	for i := 0; i < 10; i++ {
		l.update(lawFusion, 10, 1, true, 0.04)
	}
	after := l.probs(lawFusion, 10)[1]
	if after <= before {
		t.Fatalf("reinforcement did not raise probability: %g -> %g", before, after)
	}
	for i := 0; i < 30; i++ {
		l.update(lawFusion, 10, 1, false, 0.04)
	}
	weakened := l.probs(lawFusion, 10)[1]
	if weakened >= after {
		t.Fatalf("weakening did not lower probability: %g -> %g", after, weakened)
	}
	// probMin is a soft floor: the final renormalization can dip slightly
	// below it, but the probability must stay well away from zero.
	if weakened < probMin/2 {
		t.Fatalf("probability collapsed: %g", weakened)
	}
}

func TestAdmissibleCounts(t *testing.T) {
	cases := []struct {
		kind lawKind
		size int
		want int
	}{
		{lawFusion, 0, 0}, {lawFusion, 1, 0}, {lawFusion, 2, 1},
		{lawFusion, 4, 3}, {lawFusion, 100, 3},
		{lawFission, 2, 0}, {lawFission, 3, 1}, {lawFission, 5, 3},
	}
	for _, c := range cases {
		if got := admissible(c.kind, c.size); got != c.want {
			t.Errorf("admissible(%v,%d) = %d, want %d", c.kind, c.size, got, c.want)
		}
	}
}

func TestEnergyPenaltyShape(t *testing.T) {
	g := graph.Grid2D(8, 8)
	e := newEnergyModel(g, objective.MCut, 8)
	if p := e.penalty(8); p != 1 {
		t.Fatalf("penalty at target = %g, want 1", p)
	}
	// Steeper below than above, mirroring the binding-energy curve.
	below := e.penalty(4) - 1
	above := e.penalty(12) - 1
	if below <= above {
		t.Fatalf("penalty not asymmetric: below %g, above %g", below, above)
	}
	// Monotone away from the target.
	if e.penalty(2) <= e.penalty(4) || e.penalty(16) <= e.penalty(12) {
		t.Fatal("penalty not monotone away from target")
	}
}

func TestFusionFissionGrid(t *testing.T) {
	g := graph.Grid2D(10, 10)
	res, err := Partition(g, 4, Options{Seed: 1, MaxSteps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.NumParts() != 4 {
		t.Fatalf("NumParts = %d, want 4", res.Best.NumParts())
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Energy, 1) {
		t.Fatal("result energy infinite")
	}
	if len(res.BestPerK) < 2 {
		t.Fatalf("part count never drifted: bestPerK has %d entries", len(res.BestPerK))
	}
}

func TestFusionFissionBeatsNaiveOnDumbbell(t *testing.T) {
	g := graph.Dumbbell(12, 12, 1)
	res, err := Partition(g, 2, Options{Seed: 5, MaxSteps: 3000, Objective: objective.Cut})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy != 2 {
		t.Fatalf("FF cut = %g, want optimal 2", res.Energy)
	}
}

func TestFusionFissionImprovesOnPercolation(t *testing.T) {
	g := graph.RandomGeometric(150, 0.15, 9)
	perc, err := percolation.Partition(g, 8, percolation.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	percE := objective.MCut.Evaluate(perc)
	res, err := Partition(g, 8, Options{Seed: 9, MaxSteps: 12000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy > percE*1.05 {
		t.Fatalf("FF (%.4f) much worse than percolation (%.4f)", res.Energy, percE)
	}
}

func TestFusionFissionDeterministic(t *testing.T) {
	g := graph.Grid2D(8, 8)
	r1, err := Partition(g, 4, Options{Seed: 3, MaxSteps: 1500})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Partition(g, 4, Options{Seed: 3, MaxSteps: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Energy != r2.Energy {
		t.Fatalf("non-deterministic: %g vs %g", r1.Energy, r2.Energy)
	}
}

func TestFusionFissionBudget(t *testing.T) {
	g := graph.Grid2D(12, 12)
	start := time.Now()
	_, err := Partition(g, 6, Options{Seed: 1, Budget: 40 * time.Millisecond, MaxSteps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("budget ignored")
	}
}

func TestFusionFissionNonPowerOfTwoK(t *testing.T) {
	g := graph.RandomGeometric(90, 0.2, 2)
	for _, k := range []int{3, 5, 7} {
		res, err := Partition(g, k, Options{Seed: int64(k), MaxSteps: 2500})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Best.NumParts() != k {
			t.Fatalf("k=%d: NumParts = %d", k, res.Best.NumParts())
		}
	}
}

func TestBestPerKNeighborhood(t *testing.T) {
	// The paper: FF "returns good solutions from 27 to 38 partitions" when
	// targeting 32; at small scale, targeting 6 should populate several
	// nearby part counts.
	g := graph.RandomGeometric(120, 0.18, 4)
	res, err := Partition(g, 6, Options{Seed: 4, MaxSteps: 8000})
	if err != nil {
		t.Fatal(err)
	}
	nearby := 0
	for kk := 4; kk <= 8; kk++ {
		if _, ok := res.BestPerK[kk]; ok {
			nearby++
		}
	}
	if nearby < 3 {
		t.Fatalf("only %d part counts near the target visited: %v", nearby, res.BestPerK)
	}
}

func TestAblationsRun(t *testing.T) {
	g := graph.Grid2D(8, 8)
	for _, opt := range []Options{
		{Seed: 1, MaxSteps: 1200, DisablePercolationFission: true},
		{Seed: 1, MaxSteps: 1200, DisableLawLearning: true},
	} {
		res, err := Partition(g, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.NumParts() != 4 {
			t.Fatalf("ablation lost parts: %d", res.Best.NumParts())
		}
	}
}

func TestInitialPartitionPath(t *testing.T) {
	g := graph.Grid2D(8, 8)
	init, err := percolation.Partition(g, 4, percolation.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// FF needs capacity n to split atoms; a k-capacity partition must be
	// rejected, an n-capacity one accepted.
	if _, err := Partition(g, 4, Options{Seed: 2, MaxSteps: 500, Initial: init}); err == nil {
		t.Fatal("k-capacity initial partition accepted")
	}
	wide, err := partitionWithCapacity(g, init.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, 4, Options{Seed: 2, MaxSteps: 500, Initial: wide})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.NumParts() != 4 {
		t.Fatalf("NumParts = %d", res.Best.NumParts())
	}
}

func TestCoreErrors(t *testing.T) {
	g := graph.Path(6)
	if _, err := Partition(g, 1, Options{}); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := Partition(g, 7, Options{}); err == nil {
		t.Fatal("k>n accepted")
	}
}

func TestTraceMonotoneAndAtK(t *testing.T) {
	g := graph.RandomGeometric(100, 0.2, 6)
	res, err := Partition(g, 5, Options{Seed: 6, MaxSteps: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Energy > res.Trace[i-1].Energy+1e-9 {
			t.Fatalf("trace not monotone at %d", i)
		}
	}
	last := res.Trace[len(res.Trace)-1].Energy
	if math.Abs(last-res.Energy) > 1e-9 {
		t.Fatalf("trace end %g != result energy %g", last, res.Energy)
	}
}

func TestPartitionContextCancelReturnsBestSoFar(t *testing.T) {
	g := graph.Grid2D(10, 10)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := PartitionContext(ctx, g, 4, Options{
		Seed: 3, Budget: time.Minute, MaxSteps: 1 << 30,
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
