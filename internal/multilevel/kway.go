package multilevel

import (
	"context"
	"fmt"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/spectral"
)

// kwayImbalance is the k-way scheme's balance slack; refinement adds 0.10
// to it. Typed, so the sum rounds as run-time float64 addition does.
const kwayImbalance float64 = 0.05

// PartitionKWay is the direct k-way multilevel scheme (the METIS-style
// successor of the recursive method this paper benchmarks): one coarsening
// ladder for the whole graph, a k-way partition of the coarsest graph, and
// greedy k-way refinement at every uncoarsening step. It trades the
// recursive method's per-split optimality for a single global view — and is
// provided as an extension for comparison in the ablation benches.
func PartitionKWay(g *graph.Graph, k int, opt Options) (*partition.P, error) {
	return PartitionKWayContext(context.Background(), g, k, opt)
}

// PartitionKWayContext is PartitionKWay under cooperative cancellation: the
// coarse spectral solve and each uncoarsening level poll ctx, and the call
// returns ctx.Err() once it fires. No partial partition is returned.
func PartitionKWayContext(ctx context.Context, g *graph.Graph, k int, opt Options) (*partition.P, error) {
	n := g.NumVertices()
	if k < 1 || k > n {
		return nil, fmt.Errorf("multilevel: k=%d out of range [1,%d]", k, n)
	}
	h, err := coarsen.HEMContext(ctx, g, max(96, 4*k), opt.Seed)
	if err != nil {
		return nil, err
	}
	coarsest := h.Coarsest()
	coarseP, err := spectral.PartitionContext(ctx, coarsest, min(k, coarsest.NumVertices()), spectral.Options{Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	local := coarseP.Assignment()
	for li := len(h.Levels) - 1; li >= 0; li-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		local = h.Levels[li].Project(local)
		if opt.DisableRefine {
			continue
		}
		p, err := partition.FromAssignment(h.GraphAt(li), local, k)
		if err != nil {
			return nil, err
		}
		refine.KWay(p, refine.KWayOptions{
			Objective: objective.Cut,
			Imbalance: kwayImbalance + 0.10,
			MaxPasses: 4,
			Ctx:       ctx,
		})
		local = p.Assignment()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := partition.FromAssignment(g, local, k)
	if err != nil {
		return nil, err
	}
	// Cut-driven refinement can starve a part's interior; repair so the
	// relative objectives stay finite.
	refine.RelieveStarvation(p, 6, 1e9)
	return p, nil
}
