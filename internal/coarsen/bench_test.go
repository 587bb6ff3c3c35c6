package coarsen

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// BenchmarkHEM builds the full heavy-edge ladder of RandomGeometric(10000,
// 0.02) down to 256 vertices, the V-cycle default at k = 32. Each level is a
// matching pass plus one graph build of the contracted edges.
func BenchmarkHEM(b *testing.B) {
	g := graph.RandomGeometric(10000, 0.02, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HEMContext(context.Background(), g, 256, 1); err != nil {
			b.Fatal(err)
		}
	}
}
