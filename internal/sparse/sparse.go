// Package sparse provides the symmetric sparse-matrix substrate for the
// spectral partitioning methods: CSR storage, matrix-vector products, and
// graph Laplacian constructors.
package sparse

import "repro/internal/graph"

// Matrix is a symmetric sparse matrix in CSR form with an explicit diagonal.
// Only the off-diagonal pattern is stored in CSR; the diagonal is dense.
type Matrix struct {
	n    int
	xadj []int32
	cols []int32
	vals []float64
	diag []float64
}

// Dim returns the matrix dimension.
func (m *Matrix) Dim() int { return m.n }

// Diag returns the dense diagonal (shared; callers must not modify).
func (m *Matrix) Diag() []float64 { return m.diag }

// MulVec computes dst = M x. dst and x must have length Dim and not alias.
func (m *Matrix) MulVec(dst, x []float64) {
	for i := 0; i < m.n; i++ {
		s := m.diag[i] * x[i]
		for j := m.xadj[i]; j < m.xadj[i+1]; j++ {
			s += m.vals[j] * x[m.cols[j]]
		}
		dst[i] = s
	}
}

// Laplacian returns L = D - W for the weighted graph g, where D is the
// diagonal of weighted degrees and W the weighted adjacency matrix.
// L is symmetric positive semidefinite with L·1 = 0.
func Laplacian(g *graph.Graph) *Matrix {
	n := g.NumVertices()
	m := &Matrix{
		n:    n,
		xadj: make([]int32, n+1),
		diag: make([]float64, n),
	}
	nnz := 0
	for v := 0; v < n; v++ {
		nnz += g.Degree(v)
		m.xadj[v+1] = int32(nnz)
	}
	m.cols = make([]int32, nnz)
	m.vals = make([]float64, nnz)
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		wts := g.Weights(v)
		base := m.xadj[v]
		d := 0.0
		for i, u := range nbrs {
			m.cols[base+int32(i)] = u
			m.vals[base+int32(i)] = -wts[i]
			d += wts[i]
		}
		m.diag[v] = d
	}
	return m
}

// Adjacency returns the weighted adjacency matrix W of g (zero diagonal).
func Adjacency(g *graph.Graph) *Matrix {
	l := Laplacian(g)
	w := &Matrix{n: l.n, xadj: l.xadj, cols: l.cols, diag: make([]float64, l.n)}
	w.vals = make([]float64, len(l.vals))
	for i, v := range l.vals {
		w.vals[i] = -v
	}
	return w
}
