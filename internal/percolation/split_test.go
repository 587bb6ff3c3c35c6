package percolation

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// randomWeighted returns a random geometric graph whose edge weights span
// three orders of magnitude, drawn from a small set so that equal bonds
// (heap ties) occur, and heavy enough that a hop can raise a bond (the
// percolation front is then not a plain shortest-path order). Some weights
// are not dyadic, so float sums of them depend on their order.
func randomWeighted(r *rand.Rand, n int, radius float64) *graph.Graph {
	base := graph.RandomGeometric(n, radius, r.Int63())
	levels := []float64{0.1, 0.5, 0.7, 1, 1, 1.3, 2, 3, 40, 500}
	b := graph.NewBuilder(n)
	base.ForEachEdge(func(u, v int, _ float64) {
		b.AddEdge(u, v, levels[r.Intn(len(levels))])
	})
	return b.MustBuild()
}

func TestBisectMatchesHeapOracle(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(120)
		g := randomWeighted(r, n, 0.05+0.3*r.Float64())
		a, b := r.Intn(n), r.Intn(n)
		if got, want := Bisect(g, a, b), oracleBisect(g, a, b); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, seeds %d,%d): Bisect differs from the container/heap oracle", trial, n, a, b)
		}
	}
}

func TestBalancedGrowthMatchesHeapOracle(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 100; trial++ {
		n := 10 + r.Intn(300)
		g := randomWeighted(r, n, 0.03+0.2*r.Float64())
		k := 2 + r.Intn(8)
		seeds := r.Perm(n)[:k]
		ld := logDamping(g)
		gotC, gotB := balancedGrowth(context.Background(), g, seeds, ld)
		wantC, wantB := oracleBalancedGrowth(context.Background(), g, seeds, ld)
		if !slices.Equal(gotC, wantC) || !slices.Equal(floatBits(gotB), floatBits(wantB)) {
			t.Fatalf("trial %d (n=%d, k=%d): growth differs from the container/heap oracle", trial, n, k)
		}
	}
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// inducedSplit is the reference the Splitter replaces: build the induced
// subgraph, pick the farthest pair from the start, and bisect it, falling
// back to the component of member 0 when the start is isolated.
func inducedSplit(g *graph.Graph, members []int32, start int) []int32 {
	sub := graph.Induced(g, members)
	seeds := graph.FarthestPointSeeds(sub.G, start, 2)
	if len(seeds) == 2 {
		return oracleBisect(sub.G, seeds[0], seeds[1])
	}
	comp, count := graph.Components(sub.G)
	side := make([]int32, len(members))
	for i, c := range comp {
		if count < 2 && i >= len(members)/2 || count >= 2 && c != comp[0] {
			side[i] = 1
		}
	}
	return side
}

func TestSplitterMatchesInducedBisect(t *testing.T) {
	r := rng.New(3)
	fallbacks := 0
	for trial := 0; trial < 300; trial++ {
		n := 4 + r.Intn(200)
		g := randomWeighted(r, n, 0.04+0.25*r.Float64())
		s := NewSplitter(g)
		// Several subsets per splitter: the mask must reset between calls.
		for rep := 0; rep < 4; rep++ {
			var members []int32
			keep := 0.1 + 0.9*r.Float64()
			for v := 0; v < n; v++ {
				if r.Float64() < keep {
					members = append(members, int32(v))
				}
			}
			if len(members) < 2 {
				continue
			}
			start := r.Intn(len(members))
			if rep == 3 {
				// Force the fallback: an isolated start vertex.
				members, start = isolateStart(g, members, members[r.Intn(len(members))])
				if members == nil {
					continue
				}
			}
			sub := graph.Induced(g, members)
			if got, want := inducedDampingOf(s, members), logDamping(sub.G); got != want {
				t.Fatalf("trial %d rep %d: induced damping %v, want %v", trial, rep, got, want)
			}
			want := inducedSplit(g, members, start)
			if len(graph.FarthestPointSeeds(sub.G, start, 2)) < 2 {
				fallbacks++
			}
			if got := s.Split(members, start); !slices.Equal(got, want) {
				t.Fatalf("trial %d rep %d (n=%d, |members|=%d, start %d): Split differs from Bisect(Induced)",
					trial, rep, n, len(members), start)
			}
			if seeds := graph.FarthestPointSeeds(sub.G, start, 2); len(seeds) == 2 {
				if !slices.Equal(s.Split(members, start), Bisect(sub.G, seeds[0], seeds[1])) {
					t.Fatalf("trial %d rep %d: Split differs from Bisect on the induced subgraph", trial, rep)
				}
			}
		}
	}
	if fallbacks < 50 {
		t.Fatalf("only %d fallback cases exercised", fallbacks)
	}
}

// inducedDampingOf runs the splitter's damping computation on members the
// way Split masks them.
func inducedDampingOf(s *Splitter, members []int32) float64 {
	s.members = members
	for i, v := range members {
		s.local[v] = int32(i)
	}
	d := s.inducedDamping()
	for _, v := range members {
		s.local[v] = -1
	}
	s.members = nil
	return d
}

// isolateStart drops the neighbors of member v from the subset so that it
// has no neighbor inside, and returns the subset and v's index in it.
func isolateStart(g *graph.Graph, members []int32, v int32) ([]int32, int) {
	drop := map[int32]bool{}
	for _, u := range g.Neighbors(int(v)) {
		drop[u] = true
	}
	var out []int32
	start := -1
	for _, u := range members {
		if drop[u] {
			continue
		}
		if u == v {
			start = len(out)
		}
		out = append(out, u)
	}
	if len(out) < 2 {
		return nil, 0
	}
	return out, start
}
