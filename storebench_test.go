package fusionfission

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/store"
)

// BENCH_store.json measures the two claims the graph store makes:
//
//   - Admission: a stored-graph job starts solving at least
//     minAdmissionSpeedup times sooner than an inline-METIS job, because the
//     binary CSR decode skips the text parse entirely (and the store's
//     memory tier skips even the decode).
//   - Warm starts: after churning 1% of the edges, a warm-started
//     repartition seeded with the pre-churn assignment reaches the
//     cold-solve Mcut in at most 25% of the cold step budget.
//
// The committed baseline is regenerated on the 10k-vertex instance with:
//
//	BENCH_STORE_BASELINE=1 go test -run TestWriteStoreBaseline -timeout 30m .
//
// TestStoreBenchSmoke is the CI-sized regression gate against that file.

// minAdmissionSpeedup is the acceptance floor on admission_speedup. Graph
// construction is linear, so the METIS parse+build it divides is already
// fast; the binary decode still wins by a clear margin.
const minAdmissionSpeedup = 3

// storeBaseline is the committed BENCH_store.json document.
type storeBaseline struct {
	Graph string `json:"graph"`
	K     int    `json:"k"`
	Note  string `json:"note"`

	MetisParseNs     int64   `json:"metis_parse_ns"`
	BinaryDecodeNs   int64   `json:"binary_decode_ns"`
	StoreGetNs       int64   `json:"store_get_ns"`
	AdmissionSpeedup float64 `json:"admission_speedup"`

	ChurnedEdges   int     `json:"churned_edges"`
	ColdSteps      int     `json:"cold_steps"`
	ColdMcut       float64 `json:"cold_mcut"`
	WarmSteps      int     `json:"warm_steps"`
	WarmMcut       float64 `json:"warm_mcut"`
	WarmBudgetFrac float64 `json:"warm_budget_fraction"`
}

// bestOfDur runs f reps times and returns the fastest duration.
func bestOfDur(tb testing.TB, reps int, f func() error) time.Duration {
	tb.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			tb.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// measureAdmission times the three graph-admission paths on g: METIS text
// parse+build, binary CSR decode, and a store memory-tier hit.
func measureAdmission(tb testing.TB, g *Graph, reps int) (parse, decode, memGet time.Duration) {
	tb.Helper()
	var metis strings.Builder
	if err := WriteMETIS(&metis, g); err != nil {
		tb.Fatal(err)
	}
	bin := graph.EncodeBinary(g)
	parse = bestOfDur(tb, reps, func() error {
		_, err := ReadMETIS(strings.NewReader(metis.String()))
		return err
	})
	decode = bestOfDur(tb, reps, func() error {
		_, err := graph.DecodeBinary(bin)
		return err
	})
	st, err := store.Open("", 0)
	if err != nil {
		tb.Fatal(err)
	}
	id, _, err := st.Put(g)
	if err != nil {
		tb.Fatal(err)
	}
	memGet = bestOfDur(tb, reps, func() error {
		if _, ok := st.Get(id); !ok {
			return fmt.Errorf("stored graph vanished")
		}
		return nil
	})
	return parse, decode, memGet
}

// churnEdges derives a graph from g by removing frac/2 of its edges and
// adding as many fresh random ones — the drifting-workload scenario the
// warm-start path exists for. Deterministic in seed.
func churnEdges(tb testing.TB, g *Graph, frac float64, seed int64) (*Graph, int) {
	tb.Helper()
	type uv struct{ u, v int }
	var edges []uv
	g.ForEachEdge(func(u, v int, w float64) { edges = append(edges, uv{u, v}) })
	n := g.NumVertices()
	half := int(frac * float64(len(edges)) / 2)
	if half < 1 {
		half = 1
	}
	r := rng.New(seed)
	var edits []graph.EdgeEdit
	// Remove: a deterministic sample without replacement.
	perm := make([]int, len(edges))
	rng.Perm(r, perm)
	removed := make(map[uv]bool, half)
	for _, i := range perm[:half] {
		e := edges[i]
		removed[e] = true
		edits = append(edits, graph.EdgeEdit{Op: "remove", U: e.u, V: e.v})
	}
	// Add: fresh edges not present before (and not just removed, so the
	// edit list stays strict-semantics clean in one pass).
	added := make(map[uv]bool, half)
	for len(added) < half {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := uv{u, v}
		if added[e] || removed[e] {
			continue
		}
		if _, exists := g.EdgeWeight(u, v); exists {
			continue
		}
		added[e] = true
		edits = append(edits, graph.EdgeEdit{Op: "add", U: u, V: v, W: 1})
	}
	out, err := g.WithEdits(edits)
	if err != nil {
		tb.Fatal(err)
	}
	return out, len(edits)
}

// solveMcut runs the annealing metaheuristic with a fixed step budget and
// returns the independently recomputed Mcut plus the assignment.
func solveMcut(tb testing.TB, g *Graph, k, steps int, warm []int32) (float64, []int32) {
	tb.Helper()
	res, err := Partition(g, Options{
		K: k, Method: "annealing", Seed: 1, MaxSteps: steps,
		Budget: 10 * time.Minute, WarmStart: warm,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return recomputeMcut(g, res.Parts, res.NumParts), res.Parts
}

// TestWriteStoreBaseline regenerates BENCH_store.json on the acceptance
// instance and enforces the acceptance criteria: stored-graph admission at
// least minAdmissionSpeedup times faster than inline METIS, and the
// warm-started repartition no worse than the cold solve at a quarter of its
// step budget.
func TestWriteStoreBaseline(t *testing.T) {
	if os.Getenv("BENCH_STORE_BASELINE") == "" {
		t.Skip("set BENCH_STORE_BASELINE=1 to regenerate BENCH_store.json")
	}
	const k = 32
	const coldSteps = 2_000_000
	g := graph.RandomGeometric(10_000, 0.02, 1)

	parse, decode, memGet := measureAdmission(t, g, 7)

	_, before := solveMcut(t, g, k, coldSteps, nil)
	churned, edits := churnEdges(t, g, 0.01, 5)
	coldMcut, _ := solveMcut(t, churned, k, coldSteps, nil)
	warmMcut, _ := solveMcut(t, churned, k, coldSteps/4, before)

	doc := storeBaseline{
		Graph: fmt.Sprintf("RandomGeometric(10000, 0.02, seed 1): %d vertices, %d edges",
			g.NumVertices(), g.NumEdges()),
		K: k,
		Note: "Graph admission latency (best-of-7 on one core): METIS text parse+build vs " +
			"binary CSR decode vs a store memory-tier hit; admission_speedup = parse/decode " +
			"(the conservative ratio — the memory tier is orders of magnitude beyond it). " +
			"Warm start: annealing at k=32, 1% edge churn; the warm-started run gets 25% of " +
			"the cold step budget and must match or beat the cold Mcut. Gates: " +
			fmt.Sprintf("admission_speedup >= %d, warm_mcut <= cold_mcut.", minAdmissionSpeedup),
		MetisParseNs:     parse.Nanoseconds(),
		BinaryDecodeNs:   decode.Nanoseconds(),
		StoreGetNs:       memGet.Nanoseconds(),
		AdmissionSpeedup: float64(parse) / float64(decode),
		ChurnedEdges:     edits,
		ColdSteps:        coldSteps,
		ColdMcut:         coldMcut,
		WarmSteps:        coldSteps / 4,
		WarmMcut:         warmMcut,
		WarmBudgetFrac:   0.25,
	}

	t.Logf("admission: parse %s, decode %s (%.1fx), store hit %s; cold Mcut %.4f (%d steps), warm Mcut %.4f (%d steps)",
		parse, decode, doc.AdmissionSpeedup, memGet, coldMcut, coldSteps, warmMcut, coldSteps/4)
	if doc.AdmissionSpeedup < minAdmissionSpeedup {
		t.Errorf("admission speedup %.1fx < %dx acceptance threshold", doc.AdmissionSpeedup, minAdmissionSpeedup)
	}
	if doc.WarmMcut > doc.ColdMcut {
		t.Errorf("warm-started Mcut %.4f worse than cold %.4f at 25%% of the budget", warmMcut, coldMcut)
	}

	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_store.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreBenchSmoke is the CI regression gate: it validates the committed
// BENCH_store.json against the acceptance thresholds and re-measures both
// claims on a smoke-sized instance. The admission comparison is a ratio of
// two single-threaded measurements on the same machine, so it tolerates
// slow runners; it must stay above 40% of the committed baseline ratio
// (mirroring the BENCH_anneal.json smoke gate).
func TestStoreBenchSmoke(t *testing.T) {
	buf, err := os.ReadFile("BENCH_store.json")
	if err != nil {
		t.Fatalf("missing BENCH_store.json baseline (regenerate with BENCH_STORE_BASELINE=1): %v", err)
	}
	var base storeBaseline
	if err := json.Unmarshal(buf, &base); err != nil {
		t.Fatal(err)
	}
	if base.AdmissionSpeedup < minAdmissionSpeedup {
		t.Errorf("committed baseline admission_speedup %.1fx < %dx acceptance threshold",
			base.AdmissionSpeedup, minAdmissionSpeedup)
	}
	if base.WarmMcut > base.ColdMcut {
		t.Errorf("committed baseline warm_mcut %.4f worse than cold_mcut %.4f", base.WarmMcut, base.ColdMcut)
	}
	if base.WarmBudgetFrac > 0.25 {
		t.Errorf("committed baseline warm budget fraction %.2f > 0.25", base.WarmBudgetFrac)
	}
	if testing.Short() {
		// Under -race the timing ratio is distorted unevenly (the parser
		// allocates, the decoder mostly doesn't); CI re-runs the full smoke
		// in a dedicated uninstrumented step.
		t.Skip("skipping measurements in -short mode; baseline document validated")
	}

	const k = 32
	const coldSteps = 200_000
	g := graph.RandomGeometric(2000, 0.04, 1)

	parse, decode, _ := measureAdmission(t, g, 5)
	speedup := float64(parse) / float64(decode)
	t.Logf("smoke admission speedup %.1fx (baseline %.1fx)", speedup, base.AdmissionSpeedup)
	if speedup < 0.4*base.AdmissionSpeedup {
		t.Errorf("admission speedup regressed: measured %.1fx < 40%% of committed baseline %.1fx",
			speedup, base.AdmissionSpeedup)
	}

	_, before := solveMcut(t, g, k, coldSteps, nil)
	churned, _ := churnEdges(t, g, 0.01, 5)
	coldMcut, _ := solveMcut(t, churned, k, coldSteps, nil)
	warmMcut, _ := solveMcut(t, churned, k, coldSteps/4, before)
	t.Logf("smoke cold Mcut %.4f (%d steps), warm Mcut %.4f (%d steps)", coldMcut, coldSteps, warmMcut, coldSteps/4)
	if warmMcut > coldMcut {
		t.Errorf("warm-started Mcut %.4f worse than cold %.4f at 25%% of the budget", warmMcut, coldMcut)
	}
}
