// Package spectral implements spectral graph partitioning (section 2.1):
// recursive bisection by the Fiedler vector of the graph Laplacian, and
// recursive multiway (quadrisection/octasection) splitting using the 2 or 3
// smallest non-trivial eigenvectors, exactly the Chaco modes the paper
// benchmarks. Two eigensolver backends are provided, matching Table 1's
// "Lanc" and "RQI" rows:
//
//   - Lanczos: full-reorthogonalization Lanczos on the Laplacian;
//   - RQI: eigenvectors solved on the coarsest graph of a coarsen.Hierarchy
//     and polished by Rayleigh Quotient Iteration with a MINRES inner
//     solver on every finer level (Chaco's RQI/Symmlq).
//
// The recursion is package recursive's driver; this package supplies the
// split (SplitGraphContext plus optional KL) and the group-count rule
// Groups, which the multilevel method shares.
package spectral

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/coarsen"
	"repro/internal/eig"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/recursive"
	"repro/internal/refine"
	"repro/internal/sparse"
)

// Solver selects the eigensolver backend.
type Solver int

const (
	// Lanczos uses full-reorthogonalization Lanczos (Chaco's default for
	// graphs under ~10,000 vertices).
	Lanczos Solver = iota
	// RQI seeds Rayleigh Quotient Iteration with a cheap Lanczos estimate
	// and polishes with MINRES inner solves (Chaco's RQI/Symmlq).
	RQI
)

// String returns the Table 1 abbreviation of the solver.
func (s Solver) String() string {
	if s == RQI {
		return "RQI"
	}
	return "Lanc"
}

// Options configures spectral partitioning.
type Options struct {
	// Solver is the eigensolver backend (default Lanczos).
	Solver Solver
	// Arity is the split width per level: 2 (bisection), 4 (quadrisection)
	// or 8 (octasection). Default 2.
	Arity int
	// KL enables Kernighan-Lin refinement after each split.
	KL bool
	// Seed drives the random start vectors of the eigensolvers.
	Seed int64
}

// Partition cuts g into k parts by recursive spectral splitting.
func Partition(g *graph.Graph, k int, opt Options) (*partition.P, error) {
	return PartitionContext(context.Background(), g, k, opt)
}

// PartitionContext is Partition under cooperative cancellation: the
// eigensolver iterations (Lanczos steps, RQI outer iterations and their
// MINRES inner solves), the recursive splits and the KL refinement all poll
// ctx, and the call returns ctx.Err() once it fires. No partial partition is
// returned.
func PartitionContext(ctx context.Context, g *graph.Graph, k int, opt Options) (*partition.P, error) {
	n := g.NumVertices()
	if k < 1 || k > n {
		return nil, fmt.Errorf("spectral: k=%d out of range [1,%d]", k, n)
	}
	if opt.Arity == 0 {
		opt.Arity = 2
	}
	if opt.Arity != 2 && opt.Arity != 4 && opt.Arity != 8 {
		return nil, fmt.Errorf("spectral: arity must be 2, 4 or 8, got %d", opt.Arity)
	}
	return recursive.Partition(ctx, g, k, func(ctx context.Context, verts []int32, kNode int) ([]int32, []int, error) {
		kPer := recursive.Spread(kNode, Groups(opt.Arity, kNode))
		sub := graph.Induced(g, verts).G
		local, err := SplitGraphContext(ctx, sub, kPer, opt)
		if err != nil {
			return nil, nil, err
		}
		if opt.KL {
			if len(kPer) == 2 {
				w0target := sub.TotalVertexWeight() * float64(kPer[0]) / float64(kNode)
				refine.KL(sub, local, refine.BisectOptions{TargetWeight0: w0target, Ctx: ctx})
			} else {
				refine.PairwiseKL(sub, local, len(kPer), refine.BisectOptions{Ctx: ctx})
			}
		}
		return local, kPer, nil
	})
}

// Groups is the split width of a recursion node of kNode parts: arity
// halved until it fits kNode, and at least 2 — a power of two, as
// SplitGraphContext requires.
func Groups(arity, kNode int) int {
	for arity > kNode {
		arity /= 2
	}
	return max(arity, 2)
}

// SplitGraphContext splits an entire graph into len(kPer) groups with
// target vertex weights proportional to kPer, using log2(len(kPer))
// eigenvectors, and returns the group of each vertex. It returns ctx.Err()
// once ctx fires during the eigensolves. Exported for the multilevel
// method, which uses it as its coarse-graph solver.
func SplitGraphContext(ctx context.Context, g *graph.Graph, kPer []int, opt Options) ([]int32, error) {
	n := g.NumVertices()
	groups := len(kPer)
	local := make([]int32, n)
	if n == 0 {
		return local, nil
	}
	if groups == 1 {
		return local, nil
	}
	dims := 0
	for 1<<(dims+1) <= groups {
		dims++
	}
	if 1<<dims != groups {
		return nil, fmt.Errorf("spectral: group count %d is not a power of two", groups)
	}
	if n <= groups {
		// Degenerate: one vertex per group round-robin.
		for v := 0; v < n; v++ {
			local[v] = int32(v % groups)
		}
		return local, nil
	}
	vecs, err := fiedlerVectors(ctx, g, dims, opt)
	if err != nil {
		return nil, err
	}
	kNode := 0
	for _, kp := range kPer {
		kNode += kp
	}
	// Recursive median splitting: vector 0 separates the low half of the
	// group range from the high half at the proportional weight quantile;
	// vector 1 splits each side, and so on. This uses the eigenvectors "as
	// indicator vectors" (section 2.1) while keeping group weights on
	// target even when the kPer are uneven.
	idxAll := make([]int, n)
	for i := range idxAll {
		idxAll[i] = i
	}
	var rec func(idx []int, lo, hi, dim int)
	rec = func(idx []int, lo, hi, dim int) {
		if hi-lo == 1 {
			for _, v := range idx {
				local[v] = int32(lo)
			}
			return
		}
		mid := (lo + hi) / 2
		kLow := 0
		for gi := lo; gi < mid; gi++ {
			kLow += kPer[gi]
		}
		kBoth := kLow
		for gi := mid; gi < hi; gi++ {
			kBoth += kPer[gi]
		}
		f := vecs[dim]
		sort.SliceStable(idx, func(a, b int) bool { return f[idx[a]] < f[idx[b]] })
		totalW := 0.0
		for _, v := range idx {
			totalW += g.VertexWeight(v)
		}
		target := totalW * float64(kLow) / float64(kBoth)
		acc := 0.0
		cutAt := 0
		for cutAt < len(idx)-1 {
			vw := g.VertexWeight(idx[cutAt])
			if cutAt > 0 && acc+vw > target+1e-12 {
				break
			}
			acc += vw
			cutAt++
		}
		// Keep at least one vertex per side.
		if cutAt == 0 {
			cutAt = 1
		}
		if cutAt == len(idx) {
			cutAt = len(idx) - 1
		}
		nextDim := dim + 1
		if nextDim >= len(vecs) {
			nextDim = len(vecs) - 1
		}
		rec(idx[:cutAt], lo, mid, nextDim)
		rec(idx[cutAt:], mid, hi, nextDim)
	}
	rec(idxAll, 0, groups, 0)
	return local, nil
}

// fiedlerVectors returns the `dims` smallest non-trivial eigenvectors of the
// Laplacian of g, using the configured backend.
func fiedlerVectors(ctx context.Context, g *graph.Graph, dims int, opt Options) ([][]float64, error) {
	n := g.NumVertices()
	if dims > n-1 {
		dims = n - 1
	}
	if opt.Solver == RQI {
		return multilevelRQI(ctx, g, dims, opt)
	}
	_, vecs, err := eig.SmallestEigenpairs(sparse.Laplacian(g), dims, eig.LanczosOptions{
		Deflate: [][]float64{eig.ConstantVector(n)},
		Seed:    opt.Seed + 1,
		Tol:     1e-7,
		Ctx:     ctx,
	})
	return vecs, err
}

// multilevelRQI is Chaco's RQI/Symmlq eigensolver: coarsen the graph by
// heavy-edge matching, solve the small eigenproblem accurately on the
// coarsest graph with Lanczos, then interpolate each eigenvector up the
// ladder, polishing with Rayleigh Quotient Iteration (MINRES inner solves)
// at every level. The interpolated start is close to the wanted
// eigenvector, which is what keeps RQI locked onto the Fiedler (and
// next-lowest) eigenvectors rather than an arbitrary eigenpair.
func multilevelRQI(ctx context.Context, g *graph.Graph, dims int, opt Options) ([][]float64, error) {
	h, err := coarsen.HEMContext(ctx, g, max(12*dims, 40), opt.Seed+7)
	if err != nil {
		return nil, err
	}
	coarsest := h.Coarsest()
	_, vecs, err := eig.SmallestEigenpairs(sparse.Laplacian(coarsest), min(dims, coarsest.NumVertices()-1), eig.LanczosOptions{
		Deflate: [][]float64{eig.ConstantVector(coarsest.NumVertices())},
		Seed:    opt.Seed + 1,
		Tol:     1e-8,
		Ctx:     ctx,
	})
	if err != nil {
		return nil, err
	}
	for li := len(h.Levels) - 1; li >= 0; li-- {
		fine := h.GraphAt(li)
		nf := fine.NumVertices()
		op := sparse.Laplacian(fine)
		deflate := [][]float64{eig.ConstantVector(nf)}
		polished := make([][]float64, 0, len(vecs))
		for _, coarseVec := range vecs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			x := make([]float64, nf)
			for v := 0; v < nf; v++ {
				x[v] = coarseVec[h.Levels[li].Map[v]]
			}
			_, px, _ := eig.RQI(op, x, eig.RQIOptions{
				Deflate: append(append([][]float64{}, deflate...), polished...),
				Tol:     1e-8,
				Ctx:     ctx,
			})
			polished = append(polished, px)
		}
		vecs = polished
	}
	// If the coarsest graph was too small for every requested vector, top
	// up with accurate Lanczos vectors on the full graph.
	if len(vecs) < dims {
		_, more, err := eig.SmallestEigenpairs(sparse.Laplacian(g), dims, eig.LanczosOptions{
			Deflate: [][]float64{eig.ConstantVector(g.NumVertices())},
			Seed:    opt.Seed + 2,
			Tol:     1e-7,
			Ctx:     ctx,
		})
		if err != nil {
			return nil, err
		}
		vecs = more
	}
	return vecs, nil
}
