package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
)

// TestMultilevelAllMethods runs every V-cycle-capable method once with
// RunConfig.Multilevel and checks the result is a complete k-way partition
// carrying hierarchy stats.
func TestMultilevelAllMethods(t *testing.T) {
	g := graph.RandomGeometric(500, 0.08, 1)
	const k = 6
	for _, m := range append(Methods, ExtensionMethods...) {
		if !m.Multilevel {
			continue
		}
		m := m
		t.Run(m.Name, func(t *testing.T) {
			res, err := m.Run(context.Background(), g, k, RunConfig{
				Objective: objective.MCut, MaxSteps: 60, Seed: 3,
				Multilevel: true, CoarsenTo: 60,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.P == nil || !res.P.Complete() || res.P.NumParts() != k {
				t.Fatalf("bad partition: %+v", res.P)
			}
			if res.P.Graph() != g {
				t.Fatal("partition is not of the input graph")
			}
			if err := res.P.Validate(); err != nil {
				t.Fatal(err)
			}
			h := res.Hierarchy
			if h == nil || h.Levels < 1 || h.CoarsestVertices > 60 || h.CoarsestVertices <= k {
				t.Fatalf("hierarchy stats = %+v", h)
			}
		})
	}
}

// TestMultilevelPortfolioDeterministic is the acceptance guarantee that
// Parallelism > 1 composes with Multilevel deterministically under step
// caps: same (seed, width, hierarchy) in, bit-identical partition out.
func TestMultilevelPortfolioDeterministic(t *testing.T) {
	g := graph.RandomGeometric(600, 0.07, 2)
	const k = 5
	for _, id := range []string{"fusion-fission", "annealing", "genetic"} {
		spec := mustMethod(t, id)
		t.Run(spec.Name, func(t *testing.T) {
			run := func() []int32 {
				res, err := spec.Run(context.Background(), g, k, RunConfig{
					Objective: objective.MCut, MaxSteps: 120, Seed: 7,
					Parallelism: 3, Multilevel: true, CoarsenTo: 80,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Workers != 3 {
					t.Fatalf("workers = %d, want 3", res.Workers)
				}
				return res.P.Compact()
			}
			if a, b := run(), run(); !reflect.DeepEqual(a, b) {
				t.Fatal("two identical step-capped multilevel portfolio runs diverged")
			}
		})
	}
}

// TestMultilevelIgnoredByFlatConfig pins that Multilevel: false keeps the
// pre-existing flat path byte-for-byte (golden tests cover the flat path
// itself; this checks the dispatch does not disturb it).
func TestMultilevelIgnoredByFlatConfig(t *testing.T) {
	g := graph.RandomGeometric(300, 0.1, 4)
	spec := mustMethod(t, "fusion-fission")
	run := func(cfg RunConfig) []int32 {
		res, err := spec.Run(context.Background(), g, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.P.Compact()
	}
	flat := run(RunConfig{Objective: objective.MCut, MaxSteps: 150, Seed: 5})
	ml := run(RunConfig{Objective: objective.MCut, MaxSteps: 150, Seed: 5, Multilevel: true})
	if reflect.DeepEqual(flat, ml) {
		t.Log("flat and multilevel agree on this instance (possible, not required)")
	}
	res, err := spec.Run(context.Background(), g, 4, RunConfig{Objective: objective.MCut, MaxSteps: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hierarchy != nil {
		t.Fatal("flat run reported hierarchy stats")
	}
	if !reflect.DeepEqual(run(RunConfig{Objective: objective.MCut, MaxSteps: 150, Seed: 5}), flat) {
		t.Fatal("flat run not reproducible")
	}
}

// TestMultilevelCancellation: a cancelled multilevel run still returns a
// valid partition marked partial (metaheuristic anytime semantics).
func TestMultilevelCancellation(t *testing.T) {
	g := graph.RandomGeometric(400, 0.08, 8)
	spec := mustMethod(t, "fusion-fission")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Already-done context: the coarse solver errors out before a first
	// solution, and the error surfaces.
	if _, err := spec.Run(ctx, g, 4, RunConfig{Objective: objective.MCut, Multilevel: true}); err == nil {
		t.Fatal("done context did not error")
	}
}
