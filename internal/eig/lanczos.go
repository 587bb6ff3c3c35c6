package eig

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/rng"
)

// LanczosOptions configures SmallestEigenpairs.
type LanczosOptions struct {
	// Tol is the residual tolerance ||A y - theta y|| relative to the
	// largest Ritz value magnitude. 0 means 1e-8.
	Tol float64
	// Deflate lists orthonormal vectors to project out of the Krylov space
	// (e.g. the constant null vector of a connected Laplacian).
	Deflate [][]float64
	// Seed determines the random start vector.
	Seed int64
	// Ctx optionally makes the factorization cancellable: the iteration is
	// abandoned at the next Lanczos step once Ctx is done and ctx.Err() is
	// returned. Nil means never cancelled.
	Ctx context.Context
}

// SmallestEigenpairs computes the nev smallest eigenpairs of the symmetric
// operator a, restricted to the orthogonal complement of opt.Deflate, using
// Lanczos with full reorthogonalization (the regime Chaco applies to graphs
// below ~10,000 vertices).
func SmallestEigenpairs(a Operator, nev int, opt LanczosOptions) (values []float64, vectors [][]float64, err error) {
	n := a.Dim()
	free := n - len(opt.Deflate)
	if nev <= 0 {
		return nil, nil, fmt.Errorf("eig: nev must be positive, got %d", nev)
	}
	if nev > free {
		return nil, nil, fmt.Errorf("eig: requested %d eigenpairs but only %d dimensions remain after deflation", nev, free)
	}
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-8
	}
	// The Krylov subspace starts at min(n, max(2*nev+40, 80)) dimensions
	// and doubles on demand up to n.
	dim := max(2*nev+40, 80)
	if dim > free {
		dim = free
	}
	if dim < nev {
		dim = nev
	}
	r := rng.New(opt.Seed)
	var done <-chan struct{}
	if opt.Ctx != nil {
		done = opt.Ctx.Done()
	}

	for {
		vals, vecs, resid, runErr := lanczosRun(a, nev, dim, opt.Deflate, r, done)
		if runErr != nil {
			if runErr == errCancelled {
				runErr = opt.Ctx.Err()
			}
			return nil, nil, runErr
		}
		scaleRef := math.Abs(vals[len(vals)-1])
		if scaleRef < 1 {
			scaleRef = 1
		}
		if resid <= tol*scaleRef || dim >= free {
			return vals, vecs, nil
		}
		dim *= 2
		if dim > free {
			dim = free
		}
	}
}

// errCancelled is the internal sentinel lanczosRun reports when the caller's
// context fired; SmallestEigenpairs maps it to ctx.Err().
var errCancelled = fmt.Errorf("eig: cancelled")

// lanczosRun performs one full-reorthogonalization Lanczos factorization of
// dimension at most dim and extracts the nev smallest Ritz pairs. It returns
// the worst residual among those pairs.
func lanczosRun(a Operator, nev, dim int, deflate [][]float64, r *rand.Rand, done <-chan struct{}) (values []float64, vectors [][]float64, worstResid float64, err error) {
	n := a.Dim()
	v := make([][]float64, 0, dim)
	alpha := make([]float64, 0, dim)
	beta := make([]float64, 0, dim) // beta[j] couples v[j] and v[j+1]

	cur := make([]float64, n)
	randomUnit(r, cur, deflate)
	v = append(v, append([]float64(nil), cur...))

	w := make([]float64, n)
	for j := 0; j < dim; j++ {
		select {
		case <-done:
			return nil, nil, 0, errCancelled
		default:
		}
		a.MulVec(w, v[j])
		if j > 0 {
			axpy(-beta[j-1], v[j-1], w)
		}
		aj := Dot(v[j], w)
		alpha = append(alpha, aj)
		axpy(-aj, v[j], w)
		// Full reorthogonalization against the basis and deflation set.
		projectOut(w, deflate)
		projectOut(w, v)
		if j == dim-1 {
			break
		}
		bj := Norm2(w)
		if bj < 1e-12 {
			// Invariant subspace found; continue in a fresh direction.
			beta = append(beta, 0)
			next := make([]float64, n)
			randomUnit(r, next, append(append([][]float64{}, deflate...), v...))
			v = append(v, next)
			continue
		}
		beta = append(beta, bj)
		next := append([]float64(nil), w...)
		scale(1/bj, next)
		v = append(v, next)
	}

	m := len(alpha)
	tvals, tvecs, err := TridiagQL(alpha, append(beta, 0))
	if err != nil {
		return nil, nil, 0, err
	}
	if nev > m {
		nev = m
	}
	values = tvals[:nev]
	vectors = make([][]float64, nev)
	worstResid = 0.0
	for k := 0; k < nev; k++ {
		y := make([]float64, n)
		for j := 0; j < m; j++ {
			axpy(tvecs[k][j], v[j], y)
		}
		if nrm := Norm2(y); nrm > 0 {
			scale(1/nrm, y)
		}
		vectors[k] = y
		if res := Residual(a, values[k], y); res > worstResid {
			worstResid = res
		}
	}
	return values, vectors, worstResid, nil
}
