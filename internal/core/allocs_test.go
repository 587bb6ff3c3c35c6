//go:build !race

package core

import "testing"

// The event loop works in scratch the search owns: a whole airspace run
// allocates a few hundred times at most (setup, incumbent clones, trace
// points, new BestPerK entries), not once per event. The race detector
// changes allocation counts, so the guard is built without it.
func TestPartitionAirspaceAllocs(t *testing.T) {
	g := airspaceGraph(t)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Partition(g, 32, Options{MaxSteps: 1500, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("core.Partition on airspace allocates %.0f times per run, want at most 1000", allocs)
	}
	t.Logf("%.0f allocations per run", allocs)
}
