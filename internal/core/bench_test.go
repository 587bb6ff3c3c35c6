package core

import "testing"

// BenchmarkPartitionAirspace times the paper's setting: the 762-sector
// airspace graph at k=32, Mcut, 1500 fusion/fission events per run.
func BenchmarkPartitionAirspace(b *testing.B) {
	g := airspaceGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := Partition(g, 32, Options{MaxSteps: 1500, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "events/s")
}
