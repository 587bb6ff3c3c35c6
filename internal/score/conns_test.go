package score

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
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
