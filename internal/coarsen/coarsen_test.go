package coarsen

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/rng"
)

func TestHEMReducesAndPreservesWeight(t *testing.T) {
	g := graph.Grid2D(16, 16)
	ladder := hem(t, g, 40, 3)
	if len(ladder) == 0 {
		t.Fatal("no coarsening")
	}
	prev := g
	for i, lvl := range ladder {
		if lvl.G.NumVertices() >= prev.NumVertices() {
			t.Fatalf("level %d did not shrink: %d -> %d", i, prev.NumVertices(), lvl.G.NumVertices())
		}
		if lvl.G.TotalVertexWeight() != prev.TotalVertexWeight() {
			t.Fatalf("level %d lost vertex weight", i)
		}
		prev = lvl.G
	}
	if prev.NumVertices() > 40 {
		t.Fatalf("coarsest still has %d vertices", prev.NumVertices())
	}
}

func TestHEMMapsAreSurjective(t *testing.T) {
	g := graph.RandomGeometric(120, 0.18, 9)
	ladder := hem(t, g, 20, 9)
	prev := g
	for _, lvl := range ladder {
		hit := make([]bool, lvl.G.NumVertices())
		if len(lvl.Map) != prev.NumVertices() {
			t.Fatalf("map length %d != fine size %d", len(lvl.Map), prev.NumVertices())
		}
		for _, c := range lvl.Map {
			hit[c] = true
		}
		for c, ok := range hit {
			if !ok {
				t.Fatalf("coarse vertex %d has no preimage", c)
			}
		}
		prev = lvl.G
	}
}

func TestHEMPrefersHeavyEdges(t *testing.T) {
	// A path with one very heavy edge: the heavy pair must be contracted
	// in the first level.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 100)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g := b.MustBuild()
	ladder := hem(t, g, 2, 1)
	if len(ladder) == 0 {
		t.Fatal("no coarsening")
	}
	m := ladder[0].Map
	if m[2] != m[3] {
		t.Fatalf("heavy edge {2,3} not contracted: %v", m)
	}
}

func TestHEMEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(5).MustBuild()
	if ladder := hem(t, g, 2, 1); len(ladder) != 0 {
		t.Fatalf("edgeless graph coarsened %d levels", len(ladder))
	}
}

// TestContractConservesTotalWeight checks the folding invariant level by
// level: edge weight never disappears, it only migrates from the adjacency
// into coarse-vertex self-loops, and vertex weight is preserved exactly.
func TestContractConservesTotalWeight(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid2D(20, 20)},
		{"geometric", graph.RandomGeometric(400, 0.1, 5)},
		{"gnp", graph.GNP(300, 0.03, 11)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			total := tc.g.TotalEdgeWeight() + tc.g.TotalLoopWeight()
			ladder := hem(t, tc.g, 25, 7)
			if len(ladder) < 2 {
				t.Fatalf("want a multi-level ladder, got %d levels", len(ladder))
			}
			for i, lvl := range ladder {
				got := lvl.G.TotalEdgeWeight() + lvl.G.TotalLoopWeight()
				if !almost(got, total) {
					t.Fatalf("level %d: edge+loop weight %g, want %g", i, got, total)
				}
				if !almost(lvl.G.TotalVertexWeight(), tc.g.TotalVertexWeight()) {
					t.Fatalf("level %d: vertex weight %g, want %g", i, lvl.G.TotalVertexWeight(), tc.g.TotalVertexWeight())
				}
			}
		})
	}
}

// TestProjectPreservesObjectives is the core V-cycle guarantee: a partition
// of any coarse level, projected down to any finer level, keeps the same
// number of non-empty parts and identical Cut, Ncut and Mcut — because the
// internal weight folded into self-loops is counted by package partition.
func TestProjectPreservesObjectives(t *testing.T) {
	g := graph.RandomGeometric(600, 0.08, 3)
	ladder := hem(t, g, 40, 3)
	if len(ladder) < 2 {
		t.Fatalf("want a multi-level ladder, got %d levels", len(ladder))
	}
	const k = 7
	coarsest := ladder[len(ladder)-1].G
	r := rng.New(13)
	assign := make([]int32, coarsest.NumVertices())
	for v := range assign {
		assign[v] = int32(r.Intn(k))
	}
	cp, err := partition.FromAssignment(coarsest, assign, k)
	if err != nil {
		t.Fatal(err)
	}
	wantCut, wantNcut, wantMcut := objective.EvaluateAll(cp)
	wantParts := cp.NumParts()

	for li := len(ladder) - 1; li >= 0; li-- {
		assign = ladder[li].Project(assign)
		fine := g
		if li > 0 {
			fine = ladder[li-1].G
		}
		fp, err := partition.FromAssignment(fine, assign, k)
		if err != nil {
			t.Fatalf("level %d: %v", li, err)
		}
		if fp.NumParts() != wantParts {
			t.Fatalf("level %d: %d parts, want %d", li, fp.NumParts(), wantParts)
		}
		cut, ncut, mcut := objective.EvaluateAll(fp)
		if !almost(cut, wantCut) || !almost(ncut, wantNcut) || !almost(mcut, wantMcut) {
			t.Fatalf("level %d: (Cut,Ncut,Mcut)=(%g,%g,%g), want (%g,%g,%g)",
				li, cut, ncut, mcut, wantCut, wantNcut, wantMcut)
		}
		if err := fp.Validate(); err != nil {
			t.Fatalf("level %d: %v", li, err)
		}
	}
}

func almost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 || b < -1 {
		if b < 0 {
			scale = -b
		} else {
			scale = b
		}
	}
	return d <= 1e-9*scale
}

// serialHeavyEdgeMatching is the pre-parallelization algorithm, kept as the
// reference the speculate-then-commit matching must reproduce bit for bit.
func serialHeavyEdgeMatching(g *graph.Graph, r *rand.Rand) []int32 {
	n := g.NumVertices()
	match := make([]int32, n)
	for v := range match {
		match[v] = int32(v)
	}
	order := make([]int, n)
	rng.Perm(r, order)
	for _, v := range order {
		if match[v] != int32(v) {
			continue
		}
		nbrs := g.Neighbors(v)
		wts := g.Weights(v)
		best, bestW := -1, 0.0
		for i, u := range nbrs {
			if match[u] == u && int(u) != v && wts[i] > bestW {
				best, bestW = int(u), wts[i]
			}
		}
		if best >= 0 {
			match[v] = int32(best)
			match[best] = int32(v)
		}
	}
	return match
}

// TestParallelMatchingMatchesSerial drives both matchings from identical RNG
// states over graphs on both sides of the parallelMatchMin threshold —
// including weighted grids with heavy duplicate-weight ties — and requires
// identical output. Run under -race this also proves the speculative phase
// is data-race-free.
func TestParallelMatchingMatchesSerial(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid20x20": graph.Grid2D(20, 20),
		"gnp1000":   graph.GNP(1000, 0.01, 5),
		"wgrid80x80": graph.WeightedGrid2D(80, 80, func(u, v int) float64 {
			return float64(1 + (u+v)%3) // many equal-weight ties
		}),
	}
	seeds := int64(4)
	if testing.Short() {
		// -short (CI runs it under -race) drops to one seed and skips the
		// O(n^2)-to-construct random graphs, whose generators dominate the
		// instrumented run. wgrid80x80 (6400 vertices) stays above
		// parallelMatchMin, so the speculative phase still runs raced.
		seeds = 1
	} else {
		graphs["geo5000"] = graph.RandomGeometric(5000, 0.015, 2)
		graphs["gnp6000"] = graph.GNP(6000, 0.002, 9)
	}
	for name, g := range graphs {
		for seed := int64(0); seed < seeds; seed++ {
			got := heavyEdgeMatchingWorkers(g, rng.New(seed), nil, matchWorkers(g.NumVertices()))
			want := serialHeavyEdgeMatching(g, rng.New(seed))
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: length %d vs %d", name, seed, len(got), len(want))
			}
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("%s seed %d: match[%d] = %d, serial reference %d",
						name, seed, v, got[v], want[v])
				}
			}
		}
	}
}

// TestHEMDeterministic: identical seeds must yield identical ladders even
// with the parallel speculative phase in play.
func TestHEMDeterministic(t *testing.T) {
	var g *graph.Graph
	if testing.Short() {
		// The O(n^2) geometric generator dominates an instrumented (-race)
		// run; a weighted grid builds in O(n) and, at 4900 vertices, still
		// drives the parallel speculative phase on the first levels.
		g = graph.WeightedGrid2D(70, 70, func(u, v int) float64 {
			return float64(1 + (u*7+v)%5)
		})
	} else {
		g = graph.RandomGeometric(5000, 0.015, 3)
	}
	a := hem(t, g, 64, 42)
	b := hem(t, g, 64, 42)
	if len(a) != len(b) {
		t.Fatalf("ladder lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].G.NumVertices() != b[i].G.NumVertices() || a[i].G.NumEdges() != b[i].G.NumEdges() {
			t.Fatalf("level %d shapes differ", i)
		}
		for v := range a[i].Map {
			if a[i].Map[v] != b[i].Map[v] {
				t.Fatalf("level %d: map[%d] differs", i, v)
			}
		}
	}
}

// hem coarsens g under context.Background() and returns the ladder.
func hem(t *testing.T, g *graph.Graph, minSize int, seed int64) []Level {
	t.Helper()
	h, err := HEMContext(context.Background(), g, minSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	return h.Levels
}
