package refine

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/rng"
)

func benchBisection(b *testing.B) (*graph.Graph, []int32) {
	b.Helper()
	g := graph.RandomGeometric(400, 0.09, 6)
	r := rng.New(7)
	side := make([]int32, g.NumVertices())
	for v := range side {
		side[v] = int32(r.Intn(2))
	}
	return g, side
}

func BenchmarkFM(b *testing.B) {
	g, side := benchBisection(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := append([]int32(nil), side...)
		FM(g, s, BisectOptions{})
	}
}

func BenchmarkKL(b *testing.B) {
	g, side := benchBisection(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := append([]int32(nil), side...)
		KL(g, s, BisectOptions{})
	}
}

func BenchmarkKWay(b *testing.B) {
	g := graph.RandomGeometric(400, 0.09, 8)
	r := rng.New(9)
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		assign[v] = int32(r.Intn(8))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := partition.FromAssignment(g, assign, 8)
		if err != nil {
			b.Fatal(err)
		}
		KWay(p, KWayOptions{Objective: objective.Cut, MaxPasses: 2})
	}
}
