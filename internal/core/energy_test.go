package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/score"
)

// Property: moveDelta (the O(1) incremental evaluation nucleon relaxation
// uses after one gather) agrees with the difference of full smoothed
// evaluations, for every objective, on random graphs, partitions and moves,
// and the live-set energy is the full evaluation bit for bit.
func TestMoveDeltaMatchesFullEvaluation(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 6 + r.Intn(30)
		g := graph.GNP(n, 0.25, seed)
		k := 2 + r.Intn(4)
		assign := make([]int32, n)
		for v := range assign {
			assign[v] = int32(r.Intn(k))
		}
		p, err := partition.FromAssignment(g, assign, n)
		if err != nil {
			return false
		}
		mem := newMembership(n, n)
		var c score.Conns
		for _, obj := range objective.All {
			e := newEnergyModel(g, obj, k)
			energy := func() float64 {
				mem.resync(p)
				got := e.energy(p, mem.live)
				if want := obj.EvaluateSmoothed(p, e.eps) * e.penalty(p.NumParts()); got != want {
					t.Fatalf("live-set energy %v, full evaluation %v", got, want)
				}
				return got
			}
			for trial := 0; trial < 25; trial++ {
				v := r.Intn(n)
				a := p.Part(v)
				if p.PartSize(a) <= 1 {
					continue
				}
				b := -1
				for _, u := range g.Neighbors(v) {
					if pb := p.Part(int(u)); pb != a {
						b = pb
						break
					}
				}
				if b < 0 {
					continue
				}
				before := energy()
				c.Gather(p, v)
				delta := e.moveDelta(p, &c, a, b)
				p.Move(v, b)
				after := energy()
				p.Move(v, a)
				want := after - before
				// The full-evaluation difference cancels two large sums
				// (smoothed Mcut terms can reach cut/eps), so the
				// comparison tolerance must scale with their magnitude —
				// moveDelta itself only touches the two affected terms
				// and is the more accurate side.
				tol := 1e-9*(1+math.Abs(want)) + 1e-12*(math.Abs(before)+math.Abs(after))
				if math.Abs(delta-want) > tol {
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
