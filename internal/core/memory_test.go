//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// A fusion-fission run holds O(n + slots) state, with one part slot per
// vertex: quadrupling n at equal mean degree may at most about quadruple
// the bytes a short run allocates. Per-slot membership bitsets (n^2/8
// bytes) would make the ratio about 16. The race detector changes
// allocation sizes, so the guard is built without it.
func TestSearchMemoryIsLinear(t *testing.T) {
	allocated := func(g *graph.Graph) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Partition(g, 32, Options{MaxSteps: 20, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Radii 0.04 and 0.02 give both graphs a mean degree of about 12.
	small := allocated(graph.RandomGeometric(2500, 0.04, 1))
	large := allocated(graph.RandomGeometric(10000, 0.02, 1))
	ratio := float64(large) / float64(small)
	t.Logf("RG(2500): %d bytes, RG(10000): %d bytes, ratio %.2f", small, large, ratio)
	if ratio > 6 {
		t.Fatalf("a 4x larger graph allocates %.2fx the bytes, want at most 6x", ratio)
	}
}
