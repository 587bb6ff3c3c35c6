// Package recursive is the recursive-split driver shared by Chaco's global
// partitioning schemes (linear, spectral, multilevel and inertial). A node
// of the recursion holds a vertex set and a part count kNode; a
// method-supplied Split divides it into groups, and each group recurses
// with its share of the parts until one part remains.
//
// The driver owns everything but the split itself: part ids are numbered
// depth-first in group order, a group left empty still reserves the ids of
// its parts, and a group with fewer vertices than parts reserves the ids it
// cannot fill before recursing, so numbering stays dense and deterministic.
// Spread, Bands and KL are the building blocks the splits share.
package recursive

import (
	"context"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/refine"
)

// Split divides one node of the recursion: verts, ascending vertex ids of
// the input graph, must become kNode >= 2 parts. It returns the group of
// each vertex (local[i] for verts[i], in [0, len(kPer))) and kPer, the
// number of parts each group receives (normally Spread(kNode, groups)).
type Split func(ctx context.Context, verts []int32, kNode int) (local []int32, kPer []int, err error)

// Partition cuts g into k parts by recursive splitting; part ids are
// 0..k-1 and k must be in [1, n]. It polls ctx at every node and returns
// ctx.Err() once it fires, or the first error of split. No partial
// partition is returned.
func Partition(ctx context.Context, g *graph.Graph, k int, split Split) (*partition.P, error) {
	n := g.NumVertices()
	assign := make([]int32, n)
	verts := make([]int32, n)
	for v := range verts {
		verts[v] = int32(v)
	}
	next := int32(0)
	var rec func(verts []int32, kNode int) error
	rec = func(verts []int32, kNode int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if kNode == 1 {
			for _, v := range verts {
				assign[v] = next
			}
			next++
			return nil
		}
		local, kPer, err := split(ctx, verts, kNode)
		if err != nil {
			return err
		}
		members := make([][]int32, len(kPer))
		for i, v := range verts {
			members[local[i]] = append(members[local[i]], v)
		}
		for gi, m := range members {
			kgi := min(kPer[gi], len(m))
			next += int32(kPer[gi] - kgi)
			if kgi == 0 {
				continue
			}
			if err := rec(m, kgi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(verts, k); err != nil {
		return nil, err
	}
	return partition.FromAssignment(g, assign, k)
}

// Spread distributes kNode parts over groups as evenly as possible, the
// first kNode%groups groups taking one extra.
func Spread(kNode, groups int) []int {
	kPer := make([]int, groups)
	for i := range kPer {
		kPer[i] = kNode / groups
		if i < kNode%groups {
			kPer[i]++
		}
	}
	return kPer
}

// Bands slices verts, visited in the given order (a permutation of indices
// into verts), into len(kPer) contiguous bands with vertex weight
// proportional to kPer, and returns the band of each vertex (local[i] for
// verts[i]). Every band receives at least as many vertices as it has parts
// and leaves enough for the bands after it.
func Bands(g *graph.Graph, verts []int32, order []int, kPer []int) []int32 {
	groups := len(kPer)
	needAfter := make([]int, groups+1) // total parts of the bands after gi
	for gi := groups - 1; gi >= 0; gi-- {
		needAfter[gi] = needAfter[gi+1] + kPer[gi]
	}
	totalW := 0.0
	for _, v := range verts {
		totalW += g.VertexWeight(int(v))
	}
	local := make([]int32, len(verts))
	idx, accW := 0, 0.0
	for gi := 0; gi < groups; gi++ {
		targetW := accW + totalW*float64(kPer[gi])/float64(needAfter[0])
		// Stop when later bands need every remaining vertex, or when the
		// weight target is reached and the band has its minimum count.
		for start := idx; idx < len(order) && len(order)-idx > needAfter[gi+1]; idx++ {
			vw := g.VertexWeight(int(verts[order[idx]]))
			if gi < groups-1 && idx-start >= kPer[gi] && accW+vw > targetW+1e-12 {
				break
			}
			accW += vw
			local[order[idx]] = int32(gi)
		}
	}
	return local
}

// KL refines the bisection local (side 0 or 1 per vertex of sub) with
// Kernighan-Lin, holding side 0 at its current vertex weight.
func KL(ctx context.Context, sub *graph.Graph, local []int32) {
	w0 := 0.0
	for i, s := range local {
		if s == 0 {
			w0 += sub.VertexWeight(i)
		}
	}
	refine.KL(sub, local, refine.BisectOptions{TargetWeight0: w0, Ctx: ctx})
}
