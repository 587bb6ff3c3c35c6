package vcycle

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
)

// roundRobin is a deterministic CoarseSolve stand-in: vertex v to part v%k.
func roundRobin(_ context.Context, g *graph.Graph, k int, _ time.Duration, _ *engine.Runtime) (*partition.P, bool, error) {
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		assign[v] = int32(v % k)
	}
	p, err := partition.FromAssignment(g, assign, k)
	return p, false, err
}

func TestBuildClampsAndStats(t *testing.T) {
	g := graph.RandomGeometric(800, 0.07, 1)
	h := mustBuild(t, g, 0, 8, 1)
	if len(h.Levels) == 0 {
		t.Fatal("no coarsening on an 800-vertex graph")
	}
	st := StatsOf(h)
	if st.Levels != len(h.Levels) {
		t.Fatalf("Stats.Levels = %d, want %d", st.Levels, len(h.Levels))
	}
	if st.CoarsestVertices != h.Coarsest().NumVertices() {
		t.Fatalf("CoarsestVertices = %d, want %d", st.CoarsestVertices, h.Coarsest().NumVertices())
	}
	if len(st.VertexCounts) != st.Levels+1 || st.VertexCounts[0] != 800 {
		t.Fatalf("VertexCounts = %v", st.VertexCounts)
	}
	// The cutoff clamp keeps the coarsest graph above k vertices.
	const k = 40
	h = mustBuild(t, g, 3, k, 1) // absurdly low cutoff gets clamped to 2k
	if got := h.Coarsest().NumVertices(); got <= k {
		t.Fatalf("coarsest has %d vertices, want > %d", got, k)
	}
	// A graph already at the cutoff is left alone.
	small := graph.Grid2D(5, 5)
	h = mustBuild(t, small, 100, 4, 1)
	if len(h.Levels) != 0 || h.Coarsest() != small {
		t.Fatal("small graph was coarsened")
	}
}

func TestRunProducesValidPartition(t *testing.T) {
	g := graph.RandomGeometric(600, 0.08, 2)
	const k = 6
	h := mustBuild(t, g, 60, k, 2)
	if len(h.Levels) == 0 {
		t.Fatal("no coarsening")
	}
	p, partial, err := Run(context.Background(), h, k, Options{}, roundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if partial {
		t.Fatal("partial without cancellation")
	}
	if p.Graph() != g {
		t.Fatal("result is not a partition of the fine graph")
	}
	if !p.Complete() || p.NumParts() != k {
		t.Fatalf("complete=%v parts=%d, want complete %d-way", p.Complete(), p.NumParts(), k)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	// Refinement on uncoarsening must not make the projected partition
	// worse, and with a round-robin (i.e. terrible) coarse partition it
	// should strictly improve it.
	flat, _, err := roundRobin(context.Background(), g, k, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, base := objective.MCut.Evaluate(p), objective.MCut.Evaluate(flat); got >= base {
		t.Fatalf("V-cycle Mcut %g did not improve on unrefined %g", got, base)
	}
}

func TestRunSolverError(t *testing.T) {
	g := graph.Grid2D(20, 20)
	h := mustBuild(t, g, 50, 4, 1)
	boom := errors.New("boom")
	_, _, err := Run(context.Background(), h, 4, Options{},
		func(context.Context, *graph.Graph, int, time.Duration, *engine.Runtime) (*partition.P, bool, error) {
			return nil, false, boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRunCancellation(t *testing.T) {
	g := graph.RandomGeometric(500, 0.08, 4)
	const k = 5
	h := mustBuild(t, g, 50, k, 4)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel while the "solver" runs: the V-cycle must still deliver a
	// valid fine partition, flagged partial.
	p, partial, err := Run(ctx, h, k, Options{},
		func(sctx context.Context, cg *graph.Graph, kk int, b time.Duration, rt *engine.Runtime) (*partition.P, bool, error) {
			cancel()
			<-sctx.Done()
			return roundRobin(sctx, cg, kk, b, rt)
		})
	if err != nil {
		t.Fatal(err)
	}
	if !partial {
		t.Fatal("cancelled run not marked partial")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != k {
		t.Fatalf("parts = %d, want %d", p.NumParts(), k)
	}
}

// TestRunRealSolverDeterministic drives the V-cycle with the actual
// fusion-fission core under a step cap: two identical runs must agree
// bit-for-bit, the foundation of the portfolio determinism guarantee.
func TestRunRealSolverDeterministic(t *testing.T) {
	g := graph.RandomGeometric(400, 0.09, 6)
	const k = 4
	h := mustBuild(t, g, 60, k, 6)
	solve := func(ctx context.Context, cg *graph.Graph, kk int, budget time.Duration, rt *engine.Runtime) (*partition.P, bool, error) {
		res, err := core.PartitionContext(ctx, cg, kk, core.Options{
			MaxSteps: 300, Seed: 42, Runtime: rt,
		})
		if err != nil {
			return nil, false, err
		}
		return res.Best, res.Cancelled, nil
	}
	run := func() []int32 {
		p, _, err := Run(context.Background(), h, k, Options{}, solve)
		if err != nil {
			t.Fatal(err)
		}
		return p.Compact()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical step-capped V-cycles diverged")
	}
}

func mustBuild(t *testing.T, g *graph.Graph, coarsenTo, k int, seed int64) *coarsen.Hierarchy {
	t.Helper()
	h, err := Build(context.Background(), g, coarsenTo, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuildCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, graph.Grid2D(40, 40), 50, 4, 1); err == nil {
		t.Fatal("done context did not stop coarsening")
	}
}
