package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestLaplacianQuadraticFormEqualsCut(t *testing.T) {
	// x^T L x = sum over edges w(u,v) (x_u - x_v)^2; with x in {-1,+1} this
	// is 4 * crossing weight (the spectral identity from section 2.1).
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(20)
		g := graph.GNP(n, 0.3, seed)
		l := Laplacian(g)
		x := make([]float64, n)
		for i := range x {
			if r.Intn(2) == 0 {
				x[i] = -1
			} else {
				x[i] = 1
			}
		}
		lx := make([]float64, n)
		l.MulVec(lx, x)
		xlx := 0.0
		for i := range x {
			xlx += x[i] * lx[i]
		}
		cut := 0.0
		g.ForEachEdge(func(u, v int, w float64) {
			if x[u] != x[v] {
				cut += w
			}
		})
		return math.Abs(xlx-4*cut) < 1e-9*(1+math.Abs(xlx))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLaplacianRowSumsZero(t *testing.T) {
	g := graph.RandomGeometric(30, 0.3, 5)
	l := Laplacian(g)
	ones := make([]float64, 30)
	for i := range ones {
		ones[i] = 1
	}
	out := make([]float64, 30)
	l.MulVec(out, ones)
	for i, v := range out {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("row %d sum = %g", i, v)
		}
	}
}

func TestAdjacencyMulVec(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	w := Adjacency(g)
	x := []float64{1, 0, 0, 2}
	out := make([]float64, 4)
	w.MulVec(out, x)
	want := []float64{0, 1, 2, 0}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-14 {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], want[i])
		}
	}
}
