package inertial

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/rng"
)

// twoClusters builds a geometric graph with two well-separated point
// clusters joined by a single edge.
func twoClusters() (*graph.Graph, []float64, []float64) {
	r := rng.New(3)
	n := 40
	x := make([]float64, n)
	y := make([]float64, n)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if i < n/2 {
			x[i], y[i] = r.Float64(), r.Float64()
		} else {
			x[i], y[i] = 10+r.Float64(), r.Float64()
		}
	}
	// Connect each cluster internally (nearest few) and one bridge.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := x[i]-x[j], y[i]-y[j]
			if dx*dx+dy*dy < 0.3 {
				b.AddEdge(i, j, 1)
			}
		}
	}
	b.AddEdge(0, n/2, 1)
	g := b.MustBuild()
	return g, x, y
}

func TestBisectSeparatesClusters(t *testing.T) {
	g, x, y := twoClusters()
	p, err := Partition(g, x, y, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All of cluster 1 on one side, cluster 2 on the other.
	side0 := p.Part(0)
	for v := 1; v < 20; v++ {
		if p.Part(v) != side0 {
			t.Fatalf("cluster 1 split at vertex %d", v)
		}
	}
	for v := 20; v < 40; v++ {
		if p.Part(v) == side0 {
			t.Fatalf("cluster 2 leaked at vertex %d", v)
		}
	}
}

func TestPrincipalAxisHorizontalSpread(t *testing.T) {
	g, x, y := twoClusters()
	verts := make([]int32, g.NumVertices())
	for i := range verts {
		verts[i] = int32(i)
	}
	ax, ay := principalAxis(g, x, y, verts)
	// Spread is along x; axis must be nearly horizontal.
	if math.Abs(ax) < 0.99 {
		t.Fatalf("principal axis (%.3f, %.3f) not horizontal", ax, ay)
	}
}

// TestMultiwayBandsBalanced cuts a square grid into four parts by two
// levels of bisection: every part gets exactly a quarter of the vertices.
func TestMultiwayBandsBalanced(t *testing.T) {
	g := graph.Grid2D(10, 10)
	x := make([]float64, 100)
	y := make([]float64, 100)
	for v := 0; v < 100; v++ {
		x[v], y[v] = float64(v%10), float64(v/10)
	}
	p, err := Partition(g, x, y, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		if p.PartSize(a) != 25 {
			t.Fatalf("part %d has %d vertices, want 25", a, p.PartSize(a))
		}
	}
	if imb := objective.Imbalance(p); imb > 1e-9 {
		t.Fatalf("imbalance %g", imb)
	}
}

func TestKLImproves(t *testing.T) {
	g, x, y := twoClusters()
	// Shuffle coordinates so inertial alone mis-cuts, then KL must help.
	r := rng.New(9)
	xs := append([]float64(nil), x...)
	ys := append([]float64(nil), y...)
	r.Shuffle(len(xs), func(i, j int) {
		xs[i], xs[j] = xs[j], xs[i]
		ys[i], ys[j] = ys[j], ys[i]
	})
	plain, err := Partition(g, xs, ys, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kl, err := Partition(g, xs, ys, 2, Options{KL: true})
	if err != nil {
		t.Fatal(err)
	}
	if kl.CrossingWeight() > plain.CrossingWeight() {
		t.Fatalf("KL worsened: %g -> %g", plain.CrossingWeight(), kl.CrossingWeight())
	}
}

func TestErrors(t *testing.T) {
	g := graph.Path(4)
	xy := []float64{0, 1, 2, 3}
	if _, err := Partition(g, xy[:3], xy, 2, Options{}); err == nil {
		t.Fatal("short coordinates accepted")
	}
	if _, err := Partition(g, xy, xy, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestNonPowerOfTwoK(t *testing.T) {
	g := graph.Grid2D(8, 8)
	x := make([]float64, 64)
	y := make([]float64, 64)
	for v := 0; v < 64; v++ {
		x[v], y[v] = float64(v%8), float64(v/8)
	}
	for _, k := range []int{3, 5, 7} {
		p, err := Partition(g, x, y, k, Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.NumParts() != k {
			t.Fatalf("k=%d: NumParts = %d", k, p.NumParts())
		}
	}
}
