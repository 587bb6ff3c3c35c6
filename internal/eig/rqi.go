package eig

import (
	"context"
	"math"
)

// RQIOptions configures Rayleigh Quotient Iteration.
type RQIOptions struct {
	// Tol is the eigen-residual tolerance relative to |lambda|+1. 0 = 1e-10.
	Tol float64
	// Deflate lists orthonormal vectors excluded from the iteration (the
	// constant vector for Laplacians, plus any converged eigenvectors).
	Deflate [][]float64
	// Ctx optionally makes the iteration cancellable: once Ctx is done the
	// outer loop (and its inner MINRES solves) stop and the best iterate so
	// far is returned — callers that need an error must inspect Ctx.Err()
	// themselves. Nil means never cancelled.
	Ctx context.Context
}

const (
	// rqiMaxIter caps the outer RQI iterations.
	rqiMaxIter = 50
	// rqiInnerTol is the relative tolerance of the inner MINRES solves:
	// loose solves are enough for cubic outer convergence.
	rqiInnerTol float64 = 1e-2
)

// RQI refines the approximate eigenvector x0 of the symmetric operator a
// with Rayleigh Quotient Iteration, solving each shifted system
// (A - rho_k I) y = x_k with MINRES (standing in for Chaco's SYMMLQ; see
// Minres). It returns the converged eigenvalue, unit eigenvector, and the
// number of outer iterations performed.
//
// RQI converges to the eigenpair whose eigenvector dominates x0, which is
// why spectral partitioning seeds it with a cheap low-accuracy Lanczos
// estimate of the Fiedler vector (Chaco seeds it from the coarse grid).
func RQI(a Operator, x0 []float64, opt RQIOptions) (lambda float64, x []float64, iters int) {
	n := a.Dim()
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-10
	}

	x = append([]float64(nil), x0...)
	projectOut(x, opt.Deflate)
	if nrm := Norm2(x); nrm > 0 {
		scale(1/nrm, x)
	}
	ax := make([]float64, n)
	y := make([]float64, n)

	a.MulVec(ax, x)
	lambda = Dot(x, ax)
	bestLambda, bestX, bestRes := lambda, append([]float64(nil), x...), residNorm(ax, lambda, x)

	var done <-chan struct{}
	if opt.Ctx != nil {
		done = opt.Ctx.Done()
	}
	for k := 1; k <= rqiMaxIter; k++ {
		select {
		case <-done:
			return bestLambda, bestX, k - 1
		default:
		}
		res := residNorm(ax, lambda, x)
		if res < bestRes {
			bestRes = res
			bestLambda = lambda
			copy(bestX, x)
		}
		if res <= tol*(math.Abs(lambda)+1) {
			return lambda, x, k - 1
		}
		shifted := &Shifted{A: a, Sigma: lambda}
		Minres(shifted, x, y, MinresOptions{
			Tol:     rqiInnerTol,
			MaxIter: 2 * n,
			Deflate: opt.Deflate,
			Ctx:     opt.Ctx,
		})
		projectOut(y, opt.Deflate)
		nrm := Norm2(y)
		if nrm < 1e-300 {
			break // solver returned nothing useful; keep the best iterate
		}
		scale(1/nrm, y)
		copy(x, y)
		a.MulVec(ax, x)
		lambda = Dot(x, ax)
	}
	return bestLambda, bestX, rqiMaxIter
}

func residNorm(ax []float64, lambda float64, x []float64) float64 {
	s := 0.0
	for i := range ax {
		d := ax[i] - lambda*x[i]
		s += d * d
	}
	return math.Sqrt(s)
}
