package percolation

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/graph"
)

func BenchmarkPartition32(b *testing.B) {
	g := graph.RandomGeometric(762, 0.055, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, 32, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBisect(b *testing.B) {
	g := graph.Grid2D(28, 28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bisect(g, 0, g.NumVertices()-1)
	}
}

// BenchmarkSplitterAirspace times the fission primitive alone on atoms of
// the sizes fusion-fission splits on the paper's instance: the parts of
// percolation partitions of the 762-sector airspace graph at K = 32 and
// K = 16, about n/K and 2n/K sectors each, every one split once per
// iteration.
func BenchmarkSplitterAirspace(b *testing.B) {
	g, _, err := airspace.Generate(airspace.Default())
	if err != nil {
		b.Fatal(err)
	}
	var atoms [][]int32
	for _, k := range []int{32, 16} {
		p, err := Partition(g, k, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for a := 0; a < k; a++ {
			if m := p.VerticesOf(a); len(m) >= 2 {
				atoms = append(atoms, m)
			}
		}
	}
	s := NewSplitter(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range atoms {
			s.Split(m, j%len(m))
		}
	}
	b.ReportMetric(float64(b.N*len(atoms))/b.Elapsed().Seconds(), "splits/s")
}
