// Package linear implements Chaco's "linear" global partitioning scheme: the
// vertices are cut into contiguous index ranges of (nearly) equal vertex
// weight. On its own it ignores the edge structure entirely — the Table 1
// baseline "Linear (Bi)" — and with KL refinement after each split it becomes
// the "Linear (Bi, KL)" and "Linear (Oct, KL)" rows.
package linear

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	assign := make([]int32, n)
	verts := make([]int32, n)
	for v := range verts {
		verts[v] = int32(v)
	}
	nextPart := int32(0)
	split(ctx, g, verts, k, opt, assign, &nextPart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return partition.FromAssignment(g, assign, k)
}

// split recursively partitions the index-ordered vertex list into kNode
// parts, writing final part ids into assign. It unwinds without finishing
// the assignment once ctx is cancelled; the caller must check ctx.Err().
func split(ctx context.Context, g *graph.Graph, verts []int32, kNode int, opt Options, assign []int32, nextPart *int32) {
	if ctx.Err() != nil {
		return
	}
	if kNode == 1 {
		id := *nextPart
		*nextPart++
		for _, v := range verts {
			assign[v] = id
		}
		return
	}
	groups := opt.Arity
	if groups > kNode {
		groups = kNode
	}
	// Distribute kNode part counts over the groups as evenly as possible.
	kPer := make([]int, groups)
	for i := range kPer {
		kPer[i] = kNode / groups
		if i < kNode%groups {
			kPer[i]++
		}
	}
	// Contiguous chunks with vertex weight proportional to part counts.
	// Each group must receive at least as many vertices as the parts it
	// will be split into, and must leave enough for the groups after it.
	totalW := 0.0
	for _, v := range verts {
		totalW += g.VertexWeight(int(v))
	}
	needAfter := make([]int, groups+1) // total parts needed by groups > gi
	for gi := groups - 1; gi >= 0; gi-- {
		needAfter[gi] = needAfter[gi+1] + kPer[gi]
	}
	local := make([]int32, len(verts)) // group of each local index
	chunkOf := make([][]int32, groups)
	idx := 0
	accW := 0.0
	for gi := 0; gi < groups; gi++ {
		targetW := accW + totalW*float64(kPer[gi])/float64(kNode)
		start := idx
		for idx < len(verts) {
			if len(verts)-idx <= needAfter[gi+1] {
				break // later groups need every remaining vertex
			}
			vw := g.VertexWeight(int(verts[idx]))
			if gi < groups-1 && idx-start >= kPer[gi] && accW+vw > targetW+1e-12 {
				break // weight target reached and minimum count satisfied
			}
			accW += vw
			local[idx] = int32(gi)
			idx++
		}
		chunkOf[gi] = verts[start:idx]
	}

	if opt.KL {
		sub := graph.Induced(g, verts)
		if groups == 2 {
			side := append([]int32(nil), local...)
			w0 := 0.0
			for i := range side {
				if side[i] == 0 {
					w0 += g.VertexWeight(int(verts[i]))
				}
			}
			refine.KL(sub.G, side, refine.BisectOptions{TargetWeight0: w0, Ctx: ctx})
			copy(local, side)
		} else {
			refine.PairwiseKL(sub.G, local, groups, refine.BisectOptions{Ctx: ctx})
		}
		// Rebuild group membership after refinement.
		chunkOf = make([][]int32, groups)
		for i, v := range verts {
			gi := local[i]
			chunkOf[gi] = append(chunkOf[gi], v)
		}
	}

	for gi := 0; gi < groups; gi++ {
		if len(chunkOf[gi]) == 0 {
			// A group emptied by refinement: its part ids must still be
			// allocated so downstream ids stay consistent; give it fresh
			// ids with no vertices, then continue. This cannot happen for
			// KL (swap-based), but guard anyway.
			*nextPart += int32(kPer[gi])
			continue
		}
		split(ctx, g, chunkOf[gi], kPer[gi], opt, assign, nextPart)
	}
}
