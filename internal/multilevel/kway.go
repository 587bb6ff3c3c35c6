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
	if opt.CoarsenTo == 0 {
		opt.CoarsenTo = 4 * k
		if opt.CoarsenTo < 96 {
			opt.CoarsenTo = 96
		}
	}
	if opt.Imbalance == 0 {
		opt.Imbalance = 0.05
	}
	ladder := coarsen.HEM(g, opt.CoarsenTo, opt.Seed)
	coarsest := g
	if len(ladder) > 0 {
		coarsest = ladder[len(ladder)-1].G
	}
	kc := k
	if kc > coarsest.NumVertices() {
		kc = coarsest.NumVertices()
	}
	coarseP, err := spectral.PartitionContext(ctx, coarsest, kc, spectral.Options{Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	local := coarseP.Assignment()
	for li := len(ladder) - 1; li >= 0; li-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fine := g
		if li > 0 {
			fine = ladder[li-1].G
		}
		projected := make([]int32, fine.NumVertices())
		for v := range projected {
			projected[v] = local[ladder[li].Map[v]]
		}
		local = projected
		if opt.DisableRefine {
			continue
		}
		p, err := partition.FromAssignment(fine, local, k)
		if err != nil {
			return nil, err
		}
		refine.KWay(p, refine.KWayOptions{
			Objective: objective.Cut,
			Imbalance: opt.Imbalance + 0.10,
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
