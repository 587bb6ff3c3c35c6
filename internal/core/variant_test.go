package core

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
)

// The variant oracle pins the fusion-fission paths the trajectory oracle
// does not reach: warm starts (Initial) whose capacity is n, as the
// experiments layer builds them, or wider than the int16 part mirror, with
// more and with fewer parts than K; both ablations; a coarse level with
// vertex weights and self-loops; K = n; a disconnected graph with isolated
// vertices; and edge weights whose float sums depend on their order (every
// weight of the trajectory oracle's graphs is an integer, so no summation
// order shows there). Each entry is the trajectory oracle's fingerprint of
// one run. Regenerate (only for an intended change of trajectory) with:
//
//	CORE_VARIANT_UPDATE=1 go test -run TestVariantOracle ./internal/core/

const variantFile = "testdata/core_variant_trajectories.json"

type variantEntry struct {
	Variant string `json:"variant"`
	trajEntry
}

type variantCase struct {
	variant string
	graph   string
	g       *graph.Graph
	k       int
	steps   int
	opt     Options // Objective, MaxSteps and Seed are set per run
}

// blockLabels assigns the vertices of g to `parts` contiguous blocks, part
// i taking slot base + i*stride.
func blockLabels(n, parts, base, stride int) []int32 {
	out := make([]int32, n)
	for v := range out {
		out[v] = int32(base + v*parts/n*stride)
	}
	return out
}

// initialOpt returns options starting from a block warm start of g with the
// given part count and part-slot capacity. Partition clones Initial, so
// every run starts from the same state.
func initialOpt(t testing.TB, g *graph.Graph, parts, capacity int) Options {
	stride := (capacity - 1) / parts
	p, err := partition.FromAssignment(g, blockLabels(g.NumVertices(), parts, capacity-1-(parts-1)*stride, stride), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return Options{Initial: p}
}

// nonDyadicGraph reweights a random geometric graph with weights that are
// not sums of powers of two, so that float sums of them depend on their
// order and grouping.
func nonDyadicGraph() *graph.Graph {
	g := graph.RandomGeometric(500, 0.09, 5)
	b := graph.NewBuilder(g.NumVertices())
	g.ForEachEdge(func(u, v int, _ float64) {
		b.AddEdge(u, v, 0.1+float64((u*31+v*17)%13)/7)
	})
	return b.MustBuild()
}

// disconnectedGraph is two weighted grids, a triangle and three isolated
// vertices with no edge between the pieces.
func disconnectedGraph() *graph.Graph {
	b := graph.NewBuilder(2*36 + 3 + 3)
	for piece := 0; piece < 2; piece++ {
		off := piece * 36
		for r := 0; r < 6; r++ {
			for c := 0; c < 6; c++ {
				v := off + r*6 + c
				if c+1 < 6 {
					b.AddEdge(v, v+1, float64(1+(v+piece)%3))
				}
				if r+1 < 6 {
					b.AddEdge(v, v+6, float64(1+v%2))
				}
			}
		}
	}
	b.AddEdge(72, 73, 1)
	b.AddEdge(73, 74, 2)
	b.AddEdge(74, 72, 1)
	return b.MustBuild()
}

func variantCases(t testing.TB) []variantCase {
	t.Helper()
	air := airspaceGraph(t)
	rg := graph.RandomGeometric(800, 0.07, 3)
	h, err := coarsen.HEMContext(context.Background(), air, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) == 0 {
		t.Fatal("airspace did not coarsen")
	}
	coarse := h.GraphAt(1)
	if coarse.UnitVertexWeights() || !coarse.HasLoops() {
		t.Fatal("coarse level lacks vertex weights or self-loops")
	}
	nd := nonDyadicGraph()
	return []variantCase{
		{"initial-n-above-k", "airspace", air, 32, 300, initialOpt(t, air, 48, air.NumVertices())},
		{"initial-n-below-k", "rg800", rg, 16, 300, initialOpt(t, rg, 6, rg.NumVertices())},
		{"initial-wide-unmirrored", "airspace", air, 32, 300, initialOpt(t, air, 40, 40000)},
		{"initial-wide-unmirrored", "rg800", rg, 16, 300, initialOpt(t, rg, 10, 40000)},
		{"initial-wide-unmirrored", "rg500-nondyadic", nd, 16, 300, initialOpt(t, nd, 20, 40000)},
		{"non-dyadic-weights", "rg500-nondyadic", nd, 16, 600, Options{}},
		{"no-percolation", "airspace", air, 32, 600, Options{DisablePercolationFission: true}},
		{"no-law-learning", "airspace", air, 32, 600, Options{DisableLawLearning: true}},
		{"coarse-level", "airspace-hem1", coarse, 16, 600, Options{}},
		{"k-equals-n", "grid4x4", graph.Grid2D(4, 4), 16, 200, Options{}},
		{"k-equals-n", "path6", graph.Path(6), 6, 200, Options{}},
		{"disconnected", "grids+triangle+isolated", disconnectedGraph(), 8, 600, Options{}},
	}
}

// runVariants runs every variant case under each objective and seeds 1 to
// maxSeed.
func runVariants(t testing.TB, maxSeed int64, visit func(variantEntry)) {
	for _, vc := range variantCases(t) {
		for _, obj := range []objective.Objective{objective.MCut, objective.NCut, objective.Cut} {
			for seed := int64(1); seed <= maxSeed; seed++ {
				opt := vc.opt
				opt.Objective, opt.MaxSteps, opt.Seed = obj, vc.steps, seed
				c := trajCase{Graph: vc.graph, K: vc.k, Objective: obj.String(), MaxSteps: vc.steps, Seed: seed}
				res, err := Partition(vc.g, vc.k, opt)
				if err != nil {
					t.Fatalf("%s %+v: %v", vc.variant, c, err)
				}
				visit(variantEntry{Variant: vc.variant, trajEntry: fingerprint(c, res)})
			}
		}
	}
}

func TestVariantOracle(t *testing.T) {
	update := os.Getenv("CORE_VARIANT_UPDATE") != ""
	maxSeed := int64(3)
	if testing.Short() && !update {
		maxSeed = 1
	}
	var got []variantEntry
	runVariants(t, maxSeed, func(e variantEntry) { got = append(got, e) })
	if update {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(variantFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), variantFile)
		return
	}
	data, err := os.ReadFile(variantFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []variantEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	type key struct {
		variant string
		c       trajCase
	}
	byCase := make(map[key]variantEntry, len(want))
	for _, e := range want {
		byCase[key{e.Variant, e.trajCase}] = e
	}
	for _, e := range got {
		w, ok := byCase[key{e.Variant, e.trajCase}]
		if !ok {
			t.Errorf("%s %+v: no recorded entry", e.Variant, e.trajCase)
		} else if e != w {
			t.Errorf("%s: trajectory changed\n got %+v\nwant %+v", e.Variant, e, w)
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Fatalf("ran %d cases, recorded %d", len(got), len(want))
	}
}
