package partition

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func benchPartition(b *testing.B, k int) (*P, *graph.Graph) {
	b.Helper()
	g := graph.Torus2D(40, 40)
	r := rng.New(1)
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		assign[v] = int32(r.Intn(k))
	}
	p, err := FromAssignment(g, assign, k)
	if err != nil {
		b.Fatal(err)
	}
	return p, g
}

// BenchmarkMove measures the incremental statistics update, the inner-loop
// primitive of every metaheuristic.
func BenchmarkMove(b *testing.B) {
	p, g := benchPartition(b, 8)
	n := g.NumVertices()
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := r.Intn(n)
		to := r.Intn(8)
		if p.PartSize(p.Part(v)) > 1 {
			p.Move(v, to)
		}
	}
}

func BenchmarkFromAssignment(b *testing.B) {
	g := graph.Torus2D(40, 40)
	r := rng.New(3)
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		assign[v] = int32(r.Intn(16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromAssignment(g, assign, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloneAndCopyFrom(b *testing.B) {
	p, _ := benchPartition(b, 8)
	q := p.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.CopyFrom(p)
	}
}

func BenchmarkConnections(b *testing.B) {
	p, _ := benchPartition(b, 8)
	var c Connections
	var members [8][]int32
	for a := range members {
		members[a] = p.VerticesOf(a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Of(p, members[i%8])
	}
}
