// Package multilevel implements the Hendrickson-Leland multilevel
// partitioning method (section 2.2): coarsen the graph by contracting a
// heavy-edge matching, partition the coarse graph spectrally, then uncoarsen
// while applying local refinement at every level. Bisection mode performs
// multilevel recursive bisection; octasection mode partitions each level
// 8 ways and refines with a greedy k-way pass.
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

// Options configures multilevel partitioning.
type Options struct {
	// Arity is the split width per recursion level: 2 or 8. Default 2.
	Arity int
	// Refine enables local refinement during uncoarsening (Chaco's
	// REFINE_PARTITION; the paper switches it on for every Chaco row).
	// Default true; set Disable to turn it off for ablations.
	DisableRefine bool
	// Seed drives matching order and eigensolver start vectors.
	Seed int64
}

// Partition cuts g into k parts with the multilevel method.
func Partition(g *graph.Graph, k int, opt Options) (*partition.P, error) {
	return PartitionContext(context.Background(), g, k, opt)
}

// PartitionContext is Partition under cooperative cancellation: each
// coarsening/uncoarsening level, the coarse eigensolves and the per-level
// refinement poll ctx, and the call returns ctx.Err() once it fires. No
// partial partition is returned.
func PartitionContext(ctx context.Context, g *graph.Graph, k int, opt Options) (*partition.P, error) {
	n := g.NumVertices()
	if k < 1 || k > n {
		return nil, fmt.Errorf("multilevel: k=%d out of range [1,%d]", k, n)
	}
	if opt.Arity == 0 {
		opt.Arity = 2
	}
	if opt.Arity != 2 && opt.Arity != 8 {
		return nil, fmt.Errorf("multilevel: arity must be 2 or 8, got %d", opt.Arity)
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
	if err := splitRec(ctx, g, verts, k, opt, assign, &nextPart); err != nil {
		return nil, err
	}
	return partition.FromAssignment(g, assign, k)
}

func splitRec(ctx context.Context, g *graph.Graph, verts []int32, kNode int, opt Options, assign []int32, nextPart *int32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if kNode == 1 {
		id := *nextPart
		*nextPart++
		for _, v := range verts {
			assign[v] = id
		}
		return nil
	}
	groups := opt.Arity
	for groups > kNode {
		groups /= 2
	}
	if groups < 2 {
		groups = 2
	}
	kPer := make([]int, groups)
	for i := range kPer {
		kPer[i] = kNode / groups
		if i < kNode%groups {
			kPer[i]++
		}
	}

	sub := graph.Induced(g, verts)
	local, err := splitMultilevel(ctx, sub.G, kPer, opt)
	if err != nil {
		return err
	}
	chunkOf := make([][]int32, groups)
	for i, v := range verts {
		chunkOf[local[i]] = append(chunkOf[local[i]], v)
	}
	for gi := 0; gi < groups; gi++ {
		if len(chunkOf[gi]) == 0 {
			*nextPart += int32(kPer[gi])
			continue
		}
		kgi := kPer[gi]
		if kgi > len(chunkOf[gi]) {
			*nextPart += int32(kPer[gi] - len(chunkOf[gi]))
			kgi = len(chunkOf[gi])
		}
		if err := splitRec(ctx, g, chunkOf[gi], kgi, opt, assign, nextPart); err != nil {
			return err
		}
	}
	return nil
}

// splitMultilevel performs one multilevel V-cycle on g: coarsen, split the
// coarsest graph spectrally into len(kPer) groups, then project back with
// per-level refinement.
func splitMultilevel(ctx context.Context, g *graph.Graph, kPer []int, opt Options) ([]int32, error) {
	// The coarsest graph keeps at least four vertices per group.
	ladder := coarsen.HEM(g, max(48, 4*opt.Arity), opt.Seed)
	coarsest := g
	if len(ladder) > 0 {
		coarsest = ladder[len(ladder)-1].G
	}
	local, err := spectral.SplitGraphContext(ctx, coarsest, kPer, spectral.Options{
		Solver: spectral.Lanczos,
		Seed:   opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	if !opt.DisableRefine {
		refineLevel(ctx, coarsest, local, kPer)
	}
	// Uncoarsen: project through each level, refining as we go.
	for li := len(ladder) - 1; li >= 0; li-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var fine *graph.Graph
		if li == 0 {
			fine = g
		} else {
			fine = ladder[li-1].G
		}
		local = ladder[li].Project(local)
		if !opt.DisableRefine {
			refineLevel(ctx, fine, local, kPer)
		}
	}
	return local, nil
}

// refineLevel applies the appropriate local refinement for the group count:
// FM for bisections (cheap, Chaco-style), greedy k-way for multiway splits,
// each at its own default balance slack.
func refineLevel(ctx context.Context, g *graph.Graph, local []int32, kPer []int) {
	groups := len(kPer)
	kNode := 0
	for _, kp := range kPer {
		kNode += kp
	}
	if groups == 2 {
		target0 := g.TotalVertexWeight() * float64(kPer[0]) / float64(kNode)
		refine.FM(g, local, refine.BisectOptions{
			TargetWeight0: target0,
			Ctx:           ctx,
		})
		return
	}
	p, err := partition.FromAssignment(g, local, groups)
	if err != nil {
		return
	}
	refine.KWay(p, refine.KWayOptions{
		Objective: objective.Cut,
		Imbalance: 0.10,
		MaxPasses: 4,
		Ctx:       ctx,
	})
	copy(local, p.Assignment())
}
