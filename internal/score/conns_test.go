package score

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/rng"
)

// TestNeighborsAllInMatchesReference checks the interior predicate against
// its specification on random graphs, both complete and incomplete
// partitions, so both the int16-mirror scan and the plain lookup are covered.
func TestNeighborsAllInMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 6 + r.Intn(80)
		g := graph.GNP(n, 0.3, seed+2)
		k := 2 + r.Intn(6)
		p := partition.New(g, k)
		// Leave a random suffix unassigned on odd seeds.
		assignUpTo := n
		if seed%2 == 1 {
			assignUpTo = 1 + r.Intn(n)
		}
		for v := 0; v < assignUpTo; v++ {
			p.Assign(v, r.Intn(k))
		}
		// Bias some neighborhoods to be uniform so the "interior" answer is
		// exercised, not just the early exit.
		if assignUpTo == n && n > 4 {
			v := r.Intn(n)
			a := p.Part(v)
			for _, u := range g.Neighbors(v) {
				p.Move(int(u), a)
			}
		}
		for trial := 0; trial < 60; trial++ {
			v := r.Intn(n)
			a := r.Intn(k)
			if p.Part(v) >= 0 && trial%2 == 0 {
				a = p.Part(v)
			}
			want := true
			for _, u := range g.Neighbors(v) {
				if b := p.Part(int(u)); b != a && b != partition.Unassigned {
					want = false
					break
				}
			}
			if got := NeighborsAllIn(p, v, a); got != want {
				t.Logf("seed %d v %d a %d: NeighborsAllIn = %v, want %v", seed, v, a, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Conns.Delta is Delta bit for bit, and To is moveConns' connection weight
// bit for bit, for every gathered part and for a part no neighbour is in,
// on unit-weight, weighted and self-loop graphs, with the int16 part mirror
// and without it (capacity above 32,767). Parts lists each neighbouring
// part once, in first-seen adjacency order.
func TestConnsMatchDelta(t *testing.T) {
	var c Conns // reused across every graph and capacity
	check := func(seed int64) bool {
		r := rng.New(seed)
		var g *graph.Graph
		switch seed % 3 {
		case 0:
			g = graph.GNP(8+r.Intn(60), 0.2, seed) // unit weights
		default:
			g = randomGraph(seed) // weighted; self-loops on odd seeds
		}
		n := g.NumVertices()
		capacity := n
		if r.Intn(2) == 0 {
			capacity = math.MaxInt16 + 1 + r.Intn(100) // no int16 mirror
		}
		k := 2 + r.Intn(6)
		slots := make([]int, k)
		for i := range slots {
			slots[i] = r.Intn(capacity)
		}
		assign := make([]int32, n)
		for v := range assign {
			assign[v] = int32(slots[r.Intn(k)])
		}
		p, err := partition.FromAssignment(g, assign, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if mirrored := p.PartView16() != nil; mirrored != (capacity <= math.MaxInt16) {
			t.Fatalf("capacity %d: int16 mirror present = %v", capacity, mirrored)
		}
		for v := 0; v < n; v++ {
			parts := c.Gather(p, v)
			var want []int
			for _, u := range g.Neighbors(v) {
				if b := p.Part(int(u)); !slices.Contains(want, b) {
					want = append(want, b)
				}
			}
			if !slices.Equal(parts, want) {
				t.Logf("seed %d v %d: Parts = %v, want %v", seed, v, parts, want)
				return false
			}
			from := p.Part(v)
			targets := append(slices.Clone(parts), r.Intn(capacity))
			for _, to := range targets {
				connA, connB, _ := moveConns(p, v, from, to)
				if math.Float64bits(c.To(from)) != math.Float64bits(connA) ||
					(to != from && math.Float64bits(c.To(to)) != math.Float64bits(connB)) {
					t.Logf("seed %d v %d: To(%d), To(%d) = %v, %v; moveConns %v, %v",
						seed, v, from, to, c.To(from), c.To(to), connA, connB)
					return false
				}
				for _, obj := range objective.All {
					for _, eps := range []float64{0, 1e-6, 0.37} {
						got, w := c.Delta(p, obj, eps, from, to), Delta(p, obj, eps, v, from, to)
						if math.Float64bits(got) != math.Float64bits(w) {
							t.Logf("seed %d v %d %v eps %g: Conns.Delta(%d->%d) = %v, Delta = %v",
								seed, v, obj, eps, from, to, got, w)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
