// Package spectral implements spectral graph partitioning (section 2.1):
// recursive bisection by the Fiedler vector of the graph Laplacian, and
// recursive multiway (quadrisection/octasection) splitting using the 2 or 3
// smallest non-trivial eigenvectors, exactly the Chaco modes the paper
// benchmarks. Two eigensolver backends are provided, matching Table 1's
// "Lanc" and "RQI" rows:
//
//   - Lanczos: full-reorthogonalization Lanczos on the Laplacian;
//   - RQI: a loose Lanczos estimate polished by Rayleigh Quotient Iteration
//     with a MINRES inner solver (Chaco's RQI/Symmlq).
package spectral

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/coarsen"
	"repro/internal/eig"
	"repro/internal/graph"
	"repro/internal/partition"
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
	local, err := SplitGraphContext(ctx, sub.G, kPer, opt)
	if err != nil {
		return err
	}
	if opt.KL {
		if groups == 2 {
			w0target := sub.G.TotalVertexWeight() * float64(kPer[0]) / float64(kNode)
			refine.KL(sub.G, local, refine.BisectOptions{TargetWeight0: w0target, Ctx: ctx})
		} else {
			refine.PairwiseKL(sub.G, local, groups, refine.BisectOptions{Ctx: ctx})
		}
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
			kgi = len(chunkOf[gi])
			// Allocate the ids we cannot fill so numbering stays dense.
			*nextPart += int32(kPer[gi] - kgi)
		}
		if err := splitRec(ctx, g, chunkOf[gi], kgi, opt, assign, nextPart); err != nil {
			return err
		}
	}
	return nil
}

// SplitGraph splits an entire graph into len(kPer) groups with target vertex
// weights proportional to kPer, using log2(len(kPer)) eigenvectors. It
// returns the group of each vertex. Exposed for the multilevel method, which
// uses it as its coarse-graph solver.
func SplitGraph(g *graph.Graph, kPer []int, opt Options) ([]int32, error) {
	return SplitGraphContext(context.Background(), g, kPer, opt)
}

// SplitGraphContext is SplitGraph under cooperative cancellation; it returns
// ctx.Err() once ctx fires during the eigensolves.
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
	minSize := 12 * dims
	if minSize < 40 {
		minSize = 40
	}
	ladder := coarsen.HEM(g, minSize, opt.Seed+7)
	coarsest := g
	if len(ladder) > 0 {
		coarsest = ladder[len(ladder)-1].G
	}
	cd := dims
	if max := coarsest.NumVertices() - 1; cd > max {
		cd = max
	}
	_, vecs, err := eig.SmallestEigenpairs(sparse.Laplacian(coarsest), cd, eig.LanczosOptions{
		Deflate: [][]float64{eig.ConstantVector(coarsest.NumVertices())},
		Seed:    opt.Seed + 1,
		Tol:     1e-8,
		Ctx:     ctx,
	})
	if err != nil {
		return nil, err
	}
	for li := len(ladder) - 1; li >= 0; li-- {
		fine := g
		if li > 0 {
			fine = ladder[li-1].G
		}
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
				x[v] = coarseVec[ladder[li].Map[v]]
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
	for len(vecs) < dims {
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
