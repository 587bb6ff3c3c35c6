package graph

import (
	"math/rand"
	"testing"
)

// TestForEachEdgeIDMatchesArcTables cross-checks the per-edge weight array
// against the arc-level CSR tables: every (e, u, v, w) from ForEachEdgeID
// must agree with EdgeEndpoints, EdgeWeightOf and the arc weight found by
// scanning u's adjacency for edge id e.
func TestForEachEdgeIDMatchesArcTables(t *testing.T) {
	g := RandomGeometric(200, 0.15, 3)
	visited := 0
	g.ForEachEdgeID(func(e, u, v int, w float64) {
		visited++
		if eu, ev := g.EdgeEndpoints(e); eu != u || ev != v {
			t.Fatalf("edge %d: endpoints (%d,%d) want (%d,%d)", e, u, v, eu, ev)
		}
		if got := g.EdgeWeightOf(e); got != w {
			t.Fatalf("edge %d: EdgeWeightOf %g, callback %g", e, got, w)
		}
		found := false
		for i, id := range g.ArcEdgeIDs(u) {
			if int(id) == e {
				if g.Weights(u)[i] != w {
					t.Fatalf("edge %d: arc weight %g, edge weight %g", e, g.Weights(u)[i], w)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("edge %d not present in arc table of %d", e, u)
		}
	})
	if visited != g.NumEdges() {
		t.Fatalf("visited %d edges, want %d", visited, g.NumEdges())
	}
}

// buildLarge constructs a ~1M-edge torus-like graph through the Builder,
// with every edge added twice so the parallel-merge path is exercised at
// scale. Shared by the benchmark and its correctness check.
func buildLarge(rows, cols int, reserve bool) (*Graph, error) {
	n := rows * cols
	b := NewBuilder(n)
	if reserve {
		b.Reserve(4 * n)
	}
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := id(r, c)
			b.AddEdge(v, id(r, c+1), 1)
			b.AddEdge(v, id(r+1, c), 1)
			// Parallel duplicates: merged by Build, weights summed.
			b.AddEdge(v, id(r, c+1), 0.5)
			b.AddEdge(v, id(r+1, c), 0.5)
		}
	}
	return b.Build()
}

func TestBuildLargeMergesAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large build in -short mode")
	}
	const rows, cols = 250, 1000
	g, err := buildLarge(rows, cols, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.NumEdges(), 2*rows*cols; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	if got, want := g.TotalEdgeWeight(), 1.5*2*float64(rows*cols); got != want {
		t.Fatalf("TotalEdgeWeight = %g, want %g", got, want)
	}
}

// BenchmarkBuilderLargeBuild measures a ~1M-edge build (500k distinct edges
// added twice, i.e. 1M AddEdge calls with a full merge pass). Reference
// numbers on a 2-vCPU Xeon VM: with Reserve, the counting-sort Build takes
// ~51 ms/op and 49 MB/op in 12 allocations, where the former stable
// comparison sort took ~113 ms/op and 47 MB/op (the index array costs 4 bytes
// per added edge); grown, ~103 ms/op and 121 MB/op in 50 allocations. A
// map[[2]int32]float64 accumulator took 279 ms/op on one 2.1 GHz Xeon core.
func BenchmarkBuilderLargeBuild(b *testing.B) {
	const rows, cols = 250, 1000
	for _, mode := range []struct {
		name    string
		reserve bool
	}{{"grown", false}, {"reserved", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := buildLarge(rows, cols, mode.reserve)
				if err != nil {
					b.Fatal(err)
				}
				if g.NumEdges() != 2*rows*cols {
					b.Fatalf("NumEdges = %d", g.NumEdges())
				}
			}
		})
	}
}

// rg10k is the benchmark instance the V-cycle relayout request rebuilds:
// RandomGeometric(10000, 0.02), 61,644 edges.
func rg10k() *Graph { return RandomGeometric(10000, 0.02, 1) }

// BenchmarkBuildUnsorted builds rg10k from its edges in a random order, the
// shape contraction and METIS parsing hand to Build, so every build runs the
// counting sort. The timed loop copies the prepared edge list into a fresh
// builder and builds it.
func BenchmarkBuildUnsorted(b *testing.B) {
	g := rg10k()
	rng := rand.New(rand.NewSource(1))
	edges := make([]builderEdge, g.NumEdges())
	for i, e := range rng.Perm(g.NumEdges()) {
		u, v := g.EdgeEndpoints(e)
		edges[i] = builderEdge{int32(u), int32(v), g.EdgeWeightOf(e)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := NewBuilder(g.NumVertices())
		bd.edges = append(make([]builderEdge, 0, len(edges)), edges...)
		if h := bd.MustBuild(); h.NumEdges() != g.NumEdges() {
			b.Fatalf("NumEdges = %d, want %d", h.NumEdges(), g.NumEdges())
		}
	}
}

// BenchmarkRelabel renumbers rg10k through a random permutation, the worst
// case for the per-adjacency sort: mapped neighbors arrive in no order.
func BenchmarkRelabel(b *testing.B) {
	g := rg10k()
	perm := make([]int32, g.NumVertices())
	for v, p := range rand.New(rand.NewSource(1)).Perm(len(perm)) {
		perm[v] = int32(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Relabel(g, perm); err != nil {
			b.Fatal(err)
		}
	}
}
