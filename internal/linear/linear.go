// Package linear implements Chaco's "linear" global partitioning scheme: the
// vertices are cut into contiguous index ranges of (nearly) equal vertex
// weight. On its own it ignores the edge structure entirely — the Table 1
// baseline "Linear (Bi)" — and with KL refinement after each split it becomes
// the "Linear (Bi, KL)" and "Linear (Oct, KL)" rows. The recursion is
// package recursive's driver; this package supplies only the split: the
// weight-proportional band slicer over the index order, then KL.
package linear

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/recursive"
	"repro/internal/refine"
)

// Options configures linear partitioning.
type Options struct {
	// Arity is the split width per recursion level: 2 for recursive
	// bisection, 8 for recursive octasection. Default 2.
	Arity int
	// KL enables Kernighan-Lin refinement after each split (pairwise KL for
	// multiway splits).
	KL bool
}

// Partition cuts g into k parts. The returned partition uses part ids
// 0..k-1. k must be in [1, n].
func Partition(g *graph.Graph, k int, opt Options) (*partition.P, error) {
	return PartitionContext(context.Background(), g, k, opt)
}

// PartitionContext is Partition under cooperative cancellation: the
// recursive splits and their KL refinement poll ctx, and the call returns
// ctx.Err() once it fires. No partial partition is returned.
func PartitionContext(ctx context.Context, g *graph.Graph, k int, opt Options) (*partition.P, error) {
	n := g.NumVertices()
	if k < 1 || k > n {
		return nil, fmt.Errorf("linear: k=%d out of range [1,%d]", k, n)
	}
	if opt.Arity == 0 {
		opt.Arity = 2
	}
	if opt.Arity < 2 {
		return nil, fmt.Errorf("linear: arity must be >= 2, got %d", opt.Arity)
	}
	return recursive.Partition(ctx, g, k, func(ctx context.Context, verts []int32, kNode int) ([]int32, []int, error) {
		// Contiguous index ranges with vertex weight proportional to part
		// counts.
		kPer := recursive.Spread(kNode, min(opt.Arity, kNode))
		order := make([]int, len(verts))
		for i := range order {
			order[i] = i
		}
		local := recursive.Bands(g, verts, order, kPer)
		if opt.KL {
			sub := graph.Induced(g, verts).G
			if len(kPer) == 2 {
				recursive.KL(ctx, sub, local)
			} else {
				refine.PairwiseKL(sub, local, len(kPer), refine.BisectOptions{Ctx: ctx})
			}
		}
		return local, kPer, nil
	})
}
