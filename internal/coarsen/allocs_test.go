//go:build !race

package coarsen

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// hemBytes is what HEMContext allocates building BenchmarkHEM's ladder
// (RandomGeometric(10000, 0.02) down to 256 vertices) once every coarse
// level is built at its exact edge count; growing each level's builder by
// doubling instead allocated 11,353,745 bytes.
const hemBytes = 5_460_120

// TestHEMAllocBound keeps the ladder's allocation within a quarter of
// hemBytes, so a level built by append-doubling again fails it. The race
// detector changes allocation sizes, so the guard is built without it.
func TestHEMAllocBound(t *testing.T) {
	g := graph.RandomGeometric(10000, 0.02, 1)
	const runs = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := HEMContext(context.Background(), g, 256, 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(hemBytes) * 5 / 4; perRun > limit {
		t.Fatalf("HEMContext allocates %d bytes per ladder, want at most %d", perRun, limit)
	}
	t.Logf("%d bytes per ladder", perRun)
}
