package eig

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// BenchmarkLanczosFiedler measures the eigensolver configuration the
// spectral rows of Table 1 use: smallest non-trivial eigenpair of a graph
// Laplacian with full reorthogonalization.
func BenchmarkLanczosFiedler(b *testing.B) {
	g := graph.Grid2D(32, 32)
	l := sparse.Laplacian(g)
	deflate := [][]float64{ConstantVector(g.NumVertices())}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SmallestEigenpairs(l, 1, LanczosOptions{Deflate: deflate, Seed: 1, Tol: 1e-7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinresShiftedLaplacian(b *testing.B) {
	g := graph.Grid2D(32, 32)
	l := sparse.Laplacian(g)
	op := &Shifted{A: l, Sigma: 0.7}
	n := g.NumVertices()
	r := rng.New(4)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	x := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Minres(op, rhs, x, MinresOptions{Tol: 1e-8, MaxIter: 4 * n})
	}
}

func BenchmarkTridiagQL(b *testing.B) {
	const n = 200
	d := make([]float64, n)
	e := make([]float64, n)
	r := rng.New(5)
	for i := range d {
		d[i] = r.NormFloat64() * 2
		e[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := TridiagQL(d, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRQIPolish(b *testing.B) {
	g := graph.Grid2D(32, 32)
	l := sparse.Laplacian(g)
	deflate := [][]float64{ConstantVector(g.NumVertices())}
	_, rough, err := SmallestEigenpairs(l, 1, LanczosOptions{Tol: 0.3, Deflate: deflate, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RQI(l, rough[0], RQIOptions{Deflate: deflate})
	}
}
