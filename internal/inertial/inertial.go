// Package inertial implements Chaco's inertial (geometric) partitioning
// method, the remaining global scheme of the toolchain the paper benchmarks
// against: vertices carry coordinates, and each recursive bisection cuts the
// point set by a hyperplane orthogonal to the principal axis of inertia at
// the weighted median. It needs geometry (the airspace workload provides sector centers)
// and ignores edges entirely unless KL refinement is enabled — a useful
// baseline between "linear" (ignores everything) and "spectral" (uses the
// full edge structure).
package inertial

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/refine"
)

// Options configures inertial partitioning.
type Options struct {
	// KL enables Kernighan-Lin refinement after each split.
	KL bool
}

// Partition cuts g into k parts using vertex coordinates (x[i], y[i]).
func Partition(g *graph.Graph, x, y []float64, k int, opt Options) (*partition.P, error) {
	n := g.NumVertices()
	if len(x) != n || len(y) != n {
		return nil, fmt.Errorf("inertial: coordinate arrays must have length %d", n)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("inertial: k=%d out of range [1,%d]", k, n)
	}
	assign := make([]int32, n)
	verts := make([]int32, n)
	for v := range verts {
		verts[v] = int32(v)
	}
	nextPart := int32(0)
	split(g, x, y, verts, k, opt, assign, &nextPart)
	return partition.FromAssignment(g, assign, k)
}

func split(g *graph.Graph, x, y []float64, verts []int32, kNode int, opt Options, assign []int32, nextPart *int32) {
	if kNode == 1 {
		id := *nextPart
		*nextPart++
		for _, v := range verts {
			assign[v] = id
		}
		return
	}
	const groups = 2
	kPer := make([]int, groups)
	for i := range kPer {
		kPer[i] = kNode / groups
		if i < kNode%groups {
			kPer[i]++
		}
	}

	// Principal axis of inertia of the weighted point set.
	ax, ay := principalAxis(g, x, y, verts)
	proj := make([]float64, len(verts))
	order := make([]int, len(verts))
	for i, v := range verts {
		proj[i] = ax*x[v] + ay*y[v]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return proj[order[a]] < proj[order[b]] })

	// Slice the sorted projection into two bands with weight proportional
	// to the part counts, keeping at least one vertex per band and enough
	// for the band after it.
	totalW := 0.0
	for _, v := range verts {
		totalW += g.VertexWeight(int(v))
	}
	needAfter := make([]int, groups+1)
	for gi := groups - 1; gi >= 0; gi-- {
		needAfter[gi] = needAfter[gi+1] + kPer[gi]
	}
	local := make([]int32, len(verts))
	idx := 0
	accW := 0.0
	for gi := 0; gi < groups; gi++ {
		targetW := accW + totalW*float64(kPer[gi])/float64(kNode)
		start := idx
		for idx < len(order) {
			if len(order)-idx <= needAfter[gi+1] {
				break
			}
			vw := g.VertexWeight(int(verts[order[idx]]))
			if gi < groups-1 && idx-start >= kPer[gi] && accW+vw > targetW+1e-12 {
				break
			}
			accW += vw
			local[order[idx]] = int32(gi)
			idx++
		}
	}

	if opt.KL {
		w0 := 0.0
		for i := range local {
			if local[i] == 0 {
				w0 += g.VertexWeight(int(verts[i]))
			}
		}
		refine.KL(graph.Induced(g, verts).G, local, refine.BisectOptions{TargetWeight0: w0})
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
		split(g, x, y, chunkOf[gi], kgi, opt, assign, nextPart)
	}
}

// principalAxis returns the unit eigenvector of the 2x2 inertia tensor with
// the larger eigenvalue — the direction of maximal spread, which the
// hyperplane cuts orthogonally.
func principalAxis(g *graph.Graph, x, y []float64, verts []int32) (float64, float64) {
	var wsum, cx, cy float64
	for _, v := range verts {
		w := g.VertexWeight(int(v))
		wsum += w
		cx += w * x[v]
		cy += w * y[v]
	}
	if wsum == 0 {
		return 1, 0
	}
	cx /= wsum
	cy /= wsum
	var sxx, sxy, syy float64
	for _, v := range verts {
		w := g.VertexWeight(int(v))
		dx, dy := x[v]-cx, y[v]-cy
		sxx += w * dx * dx
		sxy += w * dx * dy
		syy += w * dy * dy
	}
	// Largest eigenpair of [[sxx, sxy], [sxy, syy]] in closed form.
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	disc := math.Sqrt(math.Max(0, tr*tr/4-det))
	lambda := tr/2 + disc
	// Eigenvector: (sxy, lambda-sxx), or (lambda-syy, sxy); pick the more
	// numerically robust of the two.
	ax, ay := sxy, lambda-sxx
	if math.Abs(ax)+math.Abs(ay) < 1e-12 {
		ax, ay = lambda-syy, sxy
	}
	if math.Abs(ax)+math.Abs(ay) < 1e-12 {
		return 1, 0 // isotropic point set: any axis works
	}
	nrm := math.Hypot(ax, ay)
	return ax / nrm, ay / nrm
}
