// Package inertial implements Chaco's inertial (geometric) partitioning
// method, the remaining global scheme of the toolchain the paper benchmarks
// against: vertices carry coordinates, and each recursive bisection cuts the
// point set by a hyperplane orthogonal to the principal axis of inertia at
// the weighted median. It needs geometry (the airspace workload provides sector centers)
// and ignores edges entirely unless KL refinement is enabled — a useful
// baseline between "linear" (ignores everything) and "spectral" (uses the
// full edge structure). The recursion is package recursive's driver; this
// package supplies only the split: the principal-axis order, cut by the
// same band slicer linear uses, then KL.
package inertial

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/recursive"
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
	return recursive.Partition(context.TODO(), g, k, func(ctx context.Context, verts []int32, kNode int) ([]int32, []int, error) {
		// Slice the projection on the principal axis of inertia into two
		// bands with weight proportional to the part counts.
		ax, ay := principalAxis(g, x, y, verts)
		proj := make([]float64, len(verts))
		order := make([]int, len(verts))
		for i, v := range verts {
			proj[i] = ax*x[v] + ay*y[v]
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return proj[order[a]] < proj[order[b]] })
		kPer := recursive.Spread(kNode, 2)
		local := recursive.Bands(g, verts, order, kPer)
		if opt.KL {
			recursive.KL(ctx, graph.Induced(g, verts).G, local)
		}
		return local, kPer, nil
	})
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
