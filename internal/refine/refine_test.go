package refine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/rng"
)

// badDumbbellSplit returns a dumbbell graph and a deliberately bad bisection
// that mixes the cliques.
func badDumbbellSplit() (*graph.Graph, []int32) {
	g := graph.Dumbbell(8, 8, 2)
	side := make([]int32, 16)
	for v := 0; v < 16; v++ {
		side[v] = int32(v % 2) // alternate: terrible cut
	}
	return g, side
}

func TestKLFindsDumbbellCut(t *testing.T) {
	g, side := badDumbbellSplit()
	before := cutOf(g, side)
	after := KL(g, side, BisectOptions{})
	if after >= before {
		t.Fatalf("KL did not improve: %g -> %g", before, after)
	}
	if after != 2 {
		t.Fatalf("KL cut = %g, want optimal 2 (the bridge)", after)
	}
	// Sides must have been preserved in size (swap-based).
	if c := countSide(side, 0); c != 8 {
		t.Fatalf("side 0 has %d vertices, want 8", c)
	}
}

func TestFMFindsDumbbellCut(t *testing.T) {
	g, side := badDumbbellSplit()
	before := cutOf(g, side)
	after := FM(g, side, BisectOptions{})
	if after >= before {
		t.Fatalf("FM did not improve: %g -> %g", before, after)
	}
	if after != 2 {
		t.Fatalf("FM cut = %g, want optimal 2", after)
	}
}

func TestFMRespectsBalance(t *testing.T) {
	// A star pulls everything toward the hub; FM must not empty a side.
	g := graph.Star(20)
	side := make([]int32, 20)
	for v := 10; v < 20; v++ {
		side[v] = 1
	}
	FM(g, side, BisectOptions{})
	c0 := countSide(side, 0)
	if c0 < 8 || c0 > 12 {
		t.Fatalf("FM broke balance: side 0 has %d of 20", c0)
	}
}

func TestKLNoOpOnOptimal(t *testing.T) {
	g := graph.Dumbbell(6, 6, 1)
	side := make([]int32, 12)
	for v := 6; v < 12; v++ {
		side[v] = 1
	}
	if after := KL(g, side, BisectOptions{}); after != 1 {
		t.Fatalf("KL degraded an optimal bisection to %g", after)
	}
}

func TestTinyGraphs(t *testing.T) {
	g := graph.Path(1)
	side := []int32{0}
	if KL(g, side, BisectOptions{}) != 0 {
		t.Fatal("single vertex KL cut != 0")
	}
	if FM(g, side, BisectOptions{}) != 0 {
		t.Fatal("single vertex FM cut != 0")
	}
}

// Property: KL and FM never increase the cut, on random graphs and random
// initial bisections.
func TestRefinementNeverWorsens(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 6 + r.Intn(40)
		g := graph.GNP(n, 0.2, seed)
		side := make([]int32, n)
		for v := range side {
			side[v] = int32(r.Intn(2))
		}
		if countSide(side, 0) == 0 || countSide(side, 1) == 0 {
			side[0], side[1] = 0, 1
		}
		before := cutOf(g, side)
		klSide := append([]int32(nil), side...)
		fmSide := append([]int32(nil), side...)
		if KL(g, klSide, BisectOptions{}) > before+1e-9 {
			return false
		}
		return FM(g, fmSide, BisectOptions{}) <= before+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPairwiseKLImprovesMultiway(t *testing.T) {
	// Grid split into 4 interleaved (awful) groups.
	g := graph.Grid2D(8, 8)
	assign := make([]int32, 64)
	for v := range assign {
		assign[v] = int32(v % 4)
	}
	before := multiCut(g, assign)
	PairwiseKL(g, assign, 4, BisectOptions{})
	after := multiCut(g, assign)
	if after >= before {
		t.Fatalf("PairwiseKL did not improve: %g -> %g", before, after)
	}
	// Group sizes preserved by swaps.
	counts := map[int32]int{}
	for _, a := range assign {
		counts[a]++
	}
	for gr, c := range counts {
		if c != 16 {
			t.Fatalf("group %d has %d vertices, want 16", gr, c)
		}
	}
}

func multiCut(g *graph.Graph, assign []int32) float64 {
	cut := 0.0
	g.ForEachEdge(func(u, v int, w float64) {
		if assign[u] != assign[v] {
			cut += w
		}
	})
	return cut
}

func TestKWayImprovesCut(t *testing.T) {
	g := graph.Grid2D(10, 10)
	r := rng.New(4)
	assign := make([]int32, 100)
	for v := range assign {
		assign[v] = int32(r.Intn(4))
	}
	p, err := partition.FromAssignment(g, assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := objective.Cut.Evaluate(p)
	after := KWay(p, KWayOptions{Objective: objective.Cut})
	if after >= before {
		t.Fatalf("KWay did not improve: %g -> %g", before, after)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 4 {
		t.Fatalf("KWay emptied parts: %d left", p.NumParts())
	}
}

func TestKWayRespectsObjective(t *testing.T) {
	g := graph.Dumbbell(10, 10, 3)
	r := rng.New(9)
	assign := make([]int32, 20)
	for v := range assign {
		assign[v] = int32(r.Intn(2))
	}
	assign[0], assign[10] = 0, 1
	p, err := partition.FromAssignment(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := objective.MCut.Evaluate(p)
	after := KWay(p, KWayOptions{Objective: objective.MCut})
	if after > before+1e-9 {
		t.Fatalf("KWay(Mcut) worsened: %g -> %g", before, after)
	}
}

func TestKWaySinglePartNoOp(t *testing.T) {
	g := graph.Path(5)
	p, _ := partition.FromAssignment(g, []int32{0, 0, 0, 0, 0}, 1)
	if got := KWay(p, KWayOptions{}); got != 0 {
		t.Fatalf("single-part KWay = %g", got)
	}
}

// TestKWayNeverEmptiesParts is the regression test for the part-count
// invariant KWay's maxW computation relies on: maxW is derived from
// p.NumParts() at entry only, which is sound because no sweep may empty a
// part (the last vertex of a part is never moved) or create one (every
// destination is a neighbor's non-empty part). Random graphs, random skewed
// partitions, every objective: the non-empty part count after KWay must
// equal the count at entry, even when tiny parts sit next to huge ones.
func TestKWayNeverEmptiesParts(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rng.New(seed)
		g := graph.GNP(40+r.Intn(40), 0.15, seed)
		n := g.NumVertices()
		k := 2 + r.Intn(6)
		assign := make([]int32, n)
		for v := range assign {
			// Skewed sizes: most vertices in part 0, the rest scattered, so
			// some parts enter as near-singletons (the emptying hazard).
			if r.Intn(3) > 0 {
				assign[v] = 0
			} else {
				assign[v] = int32(r.Intn(k))
			}
		}
		for a := 0; a < k; a++ {
			assign[r.Intn(n)] = int32(a) // every part non-empty
		}
		p, err := partition.FromAssignment(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		entry := p.NumParts()
		for _, obj := range objective.All {
			q := p.Clone()
			KWay(q, KWayOptions{Objective: obj, MaxPasses: 3})
			if got := q.NumParts(); got != entry {
				t.Fatalf("seed %d obj %v: KWay changed part count %d -> %d", seed, obj, entry, got)
			}
			if err := q.Validate(); err != nil {
				t.Fatalf("seed %d obj %v: %v", seed, obj, err)
			}
		}
	}
}

// TestKWayReturnMatchesEvaluate: the value KWay reports from its incremental
// tracker must agree with a from-scratch evaluation of the final partition.
func TestKWayReturnMatchesEvaluate(t *testing.T) {
	r := rng.New(12)
	g := graph.RandomGeometric(300, 0.1, 12)
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		assign[v] = int32(r.Intn(6))
	}
	for _, obj := range objective.All {
		p, err := partition.FromAssignment(g, assign, 6)
		if err != nil {
			t.Fatal(err)
		}
		got := KWay(p, KWayOptions{Objective: obj})
		want := obj.Evaluate(p)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("obj %v: KWay returned %.15g, Evaluate says %.15g", obj, got, want)
		}
	}
}

// TestKWayBatchInvariance pins the contract of KWay's interior pre-filter:
// the batched sweep (NeighborsAllIn verdicts) skips only vertices the plain
// per-vertex scan would leave unmoved, so the refined assignment and the
// returned objective are bit-identical with the pre-filter on or off. The
// plain scan exists only as this test's reference.
func TestKWayBatchInvariance(t *testing.T) {
	defer func(old bool) { useBatch = old }(useBatch)
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 40 + r.Intn(200)
		g := graph.GNP(n, 4/float64(n), seed)
		k := 2 + r.Intn(6)
		assign := make([]int32, n)
		for v := range assign {
			assign[v] = int32(r.Intn(k))
		}
		for _, obj := range []objective.Objective{objective.Cut, objective.NCut, objective.MCut} {
			run := func(batched bool) ([]int32, float64) {
				useBatch = batched
				p, err := partition.FromAssignment(g, assign, k)
				if err != nil {
					t.Fatal(err)
				}
				val := KWay(p, KWayOptions{Objective: obj})
				out := make([]int32, n)
				for v := 0; v < n; v++ {
					out[v] = int32(p.Part(v))
				}
				return out, val
			}
			batchedAssign, batchedVal := run(true)
			plainAssign, plainVal := run(false)
			if math.Float64bits(batchedVal) != math.Float64bits(plainVal) {
				t.Logf("seed %d obj %v: value %v batched vs %v plain", seed, obj, batchedVal, plainVal)
				return false
			}
			for v := range batchedAssign {
				if batchedAssign[v] != plainAssign[v] {
					t.Logf("seed %d obj %v: vertex %d assigned %d batched vs %d plain",
						seed, obj, v, batchedAssign[v], plainAssign[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
