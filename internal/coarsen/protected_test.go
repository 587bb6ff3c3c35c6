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

// Property suite for cut-edge-protected matching, the substrate of the
// memetic recombination operator: for random graphs and random parent
// pairs, (1) no protected edge is ever contracted at any level, (2) every
// guide's coarse objectives equal its projected fine objectives exactly —
// the PR-4 invariant extended to protected ladders — and (3) the parallel
// speculate-then-commit matcher is bit-identical to the serial reference
// for pinned worker counts {1, 2, 4, 8} (run under -race in CI, which also
// proves the speculative phase data-race free at every width).

// randomGuides returns two complete k-labelings of g, every label present.
func randomGuides(g *graph.Graph, k int, r *rand.Rand) [][]int32 {
	guides := make([][]int32, 2)
	for i := range guides {
		assign := make([]int32, g.NumVertices())
		for v := range assign {
			assign[v] = int32(r.Intn(k))
		}
		perm := make([]int, len(assign))
		rng.Perm(r, perm)
		for a := 0; a < k; a++ {
			assign[perm[a]] = int32(a)
		}
		guides[i] = assign
	}
	return guides
}

// lumpyGraph is a random geometric graph with non-unit vertex weights and
// scattered self-loops, so the protected-ladder invariants are exercised on
// the full weight model, not just the unit-weight fast paths.
func lumpyGraph(n int, seed int64) *graph.Graph {
	base := graph.RandomGeometric(n, 0.12, seed)
	r := rng.New(seed + 100)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, float64(1+r.Intn(4)))
	}
	base.ForEachEdge(func(u, v int, w float64) {
		b.AddEdge(u, v, w*float64(1+r.Intn(3)))
	})
	for i := 0; i < n/10; i++ {
		b.AddSelfLoop(r.Intn(n), float64(1+r.Intn(5)))
	}
	return b.MustBuild()
}

func TestProtectedLadderInvariants(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"grid16", graph.Grid2D(16, 16), 4},
		{"lumpy300", lumpyGraph(300, 5), 6},
		{"gnp250", graph.GNP(250, 0.04, 11), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				r := rng.New(seed * 31)
				guides := randomGuides(tc.g, tc.k, r)
				h, coarseGuides, err := HEMProtected(context.Background(), tc.g, 2*tc.k, seed, guides)
				if err != nil {
					t.Fatal(err)
				}

				// Reference objective values of each guide on the fine graph.
				type objs struct{ cut, ncut, mcut float64 }
				want := make([]objs, len(guides))
				for i, gd := range guides {
					p, err := partition.FromAssignment(tc.g, gd, tc.k)
					if err != nil {
						t.Fatal(err)
					}
					want[i].cut, want[i].ncut, want[i].mcut = objective.EvaluateAll(p)
				}

				fine := tc.g
				fineGuides := guides
				for li, lvl := range h.Levels {
					// (1) No protected edge contracted: endpoints that
					// disagree under any guide must land in distinct coarse
					// vertices.
					fine.ForEachEdge(func(u, v int, w float64) {
						for gi, gd := range fineGuides {
							if gd[u] != gd[v] && lvl.Map[u] == lvl.Map[v] {
								t.Fatalf("level %d: protected edge {%d,%d} (guide %d: %d vs %d) contracted",
									li, u, v, gi, gd[u], gd[v])
							}
						}
					})
					nextGuides := projectGuides(fineGuides, lvl.Map, lvl.G.NumVertices())
					// (2) Objective preservation per guide at this level.
					for gi, cg := range nextGuides {
						cp, err := partition.FromAssignment(lvl.G, cg, tc.k)
						if err != nil {
							t.Fatalf("level %d guide %d: %v", li, gi, err)
						}
						cut, ncut, mcut := objective.EvaluateAll(cp)
						if !almost(cut, want[gi].cut) || !almost(ncut, want[gi].ncut) || !almost(mcut, want[gi].mcut) {
							t.Fatalf("level %d guide %d: (Cut,Ncut,Mcut)=(%g,%g,%g), fine (%g,%g,%g)",
								li, gi, cut, ncut, mcut, want[gi].cut, want[gi].ncut, want[gi].mcut)
						}
					}
					fine = lvl.G
					fineGuides = nextGuides
				}
				// The returned coarse guides are the last projection.
				for gi := range coarseGuides {
					for v := range coarseGuides[gi] {
						if coarseGuides[gi][v] != fineGuides[gi][v] {
							t.Fatalf("guide %d: returned coarse labels differ from re-projection at %d", gi, v)
						}
					}
				}
			}
		})
	}
}

// serialProtectedMatching is the serial reference for the protected matcher:
// the pre-parallelization scan with the protection mask applied inline.
func serialProtectedMatching(g *graph.Graph, r *rand.Rand, protect Protect) []int32 {
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
			if match[u] == u && int(u) != v && wts[i] > bestW &&
				(protect == nil || !protect(v, int(u))) {
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

// TestProtectedMatchingBitIdenticalAcrossWorkers pins the speculative worker
// count to {1, 2, 4, 8} and demands the committed matching equal the serial
// reference bit for bit on every width — on graphs well under the automatic
// parallel threshold, so the parallel path is genuinely forced.
func TestProtectedMatchingBitIdenticalAcrossWorkers(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid20x20": graph.Grid2D(20, 20),
		"wgrid40x40": graph.WeightedGrid2D(40, 40, func(u, v int) float64 {
			return float64(1 + (u+v)%3) // heavy duplicate-weight ties
		}),
		"gnp600": graph.GNP(600, 0.02, 7),
	}
	for name, g := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			guides := randomGuides(g, 5, rng.New(seed+77))
			protect := func(u, v int) bool {
				return guides[0][u] != guides[0][v] || guides[1][u] != guides[1][v]
			}
			want := serialProtectedMatching(g, rng.New(seed), protect)
			for _, workers := range []int{1, 2, 4, 8} {
				got := heavyEdgeMatchingWorkers(g, rng.New(seed), protect, workers)
				for v := range got {
					if got[v] != want[v] {
						t.Fatalf("%s seed %d workers %d: match[%d] = %d, serial reference %d",
							name, seed, workers, v, got[v], want[v])
					}
				}
			}
			// Sanity: the matching must be a protection-respecting involution.
			for v, m := range want {
				if int(m) != v {
					if want[m] != int32(v) {
						t.Fatalf("%s seed %d: match not an involution at %d", name, seed, v)
					}
					if protect(v, int(m)) {
						t.Fatalf("%s seed %d: protected pair {%d,%d} matched", name, seed, v, m)
					}
				}
			}
		}
	}
}

// TestHEMProtectedRejectsBadGuides: guide length must equal the vertex count.
func TestHEMProtectedRejectsBadGuides(t *testing.T) {
	g := graph.Grid2D(4, 4)
	if _, _, err := HEMProtected(context.Background(), g, 4, 1, [][]int32{make([]int32, 3)}); err == nil {
		t.Fatal("want error for short guide")
	}
}

// TestHEMProtectedAllCutStalls: when every edge is protected the ladder is
// empty and the guides come back untouched — the coarsest graph is the
// input graph itself.
func TestHEMProtectedAllCutStalls(t *testing.T) {
	g := graph.Grid2D(6, 6)
	n := g.NumVertices()
	alternating := make([]int32, n)
	for v := range alternating {
		alternating[v] = int32((v%6 + v/6) % 2) // checkerboard: every edge cut
	}
	uniform := make([]int32, n)
	h, cg, err := HEMProtected(context.Background(), g, 4, 1, [][]int32{alternating, uniform})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) != 0 {
		t.Fatalf("checkerboard guide protected every edge, yet ladder has %d levels", len(h.Levels))
	}
	for v := range alternating {
		if cg[0][v] != alternating[v] || cg[1][v] != uniform[v] {
			t.Fatalf("guides mutated at %d", v)
		}
	}
}
