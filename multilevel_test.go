package fusionfission_test

import (
	"encoding/json"
	"reflect"
	"testing"

	ff "repro"
	"repro/internal/graph"
)

func TestMultilevelOptionsNormalize(t *testing.T) {
	// Supported metaheuristic keeps the flags.
	o, err := ff.Normalize(ff.Options{K: 4, Method: "fusion-fission", Multilevel: true, CoarsenTo: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Multilevel || o.CoarsenTo != 200 {
		t.Fatalf("normalized = %+v, want multilevel kept", o)
	}
	// CoarsenTo without Multilevel is cleared, so equivalent requests land
	// on the same cache key.
	o, err = ff.Normalize(ff.Options{K: 4, Method: "fusion-fission", CoarsenTo: 200})
	if err != nil {
		t.Fatal(err)
	}
	if o.Multilevel || o.CoarsenTo != 0 {
		t.Fatalf("normalized = %+v, want coarsen_to cleared", o)
	}
	// Non-supporting (classical) methods get both flags cleared, like
	// Parallelism pinning.
	for _, method := range []string{"multilevel-bi", "spectral-lanc-bi"} {
		o, err = ff.Normalize(ff.Options{K: 4, Method: method, Multilevel: true, CoarsenTo: 64})
		if err != nil {
			t.Fatal(err)
		}
		if o.Multilevel || o.CoarsenTo != 0 {
			t.Fatalf("%s: normalized = %+v, want multilevel cleared", method, o)
		}
	}
	// Negative cutoffs are rejected.
	if _, err := ff.Normalize(ff.Options{K: 4, CoarsenTo: -1}); err == nil {
		t.Fatal("negative CoarsenTo accepted")
	}
}

func TestMultilevelOptionsJSONRoundTrip(t *testing.T) {
	in := ff.Options{K: 8, Method: "annealing", Multilevel: true, CoarsenTo: 96, Parallelism: 2}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ff.Options
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round-trip: %+v != %+v", out, in)
	}
	// The wire names are part of the HTTP API contract.
	var wire map[string]any
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if _, ok := wire["multilevel"]; !ok {
		t.Fatalf("no \"multilevel\" key in %s", data)
	}
	if _, ok := wire["coarsen_to"]; !ok {
		t.Fatalf("no \"coarsen_to\" key in %s", data)
	}
}

func TestMultilevelPartitionEndToEnd(t *testing.T) {
	g := graph.RandomGeometric(700, 0.07, 1)
	res, err := ff.Partition(g, ff.Options{
		K: 8, Method: "fusion-fission", Seed: 1, MaxSteps: 150,
		Multilevel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumParts != 8 || len(res.Parts) != 700 {
		t.Fatalf("parts=%d len=%d", res.NumParts, len(res.Parts))
	}
	h := res.Hierarchy
	if h == nil {
		t.Fatal("no hierarchy stats on a multilevel run")
	}
	if h.Levels < 1 || h.CoarsestVertices >= 700 || len(h.VertexCounts) != h.Levels+1 {
		t.Fatalf("hierarchy = %+v", h)
	}
	// Hierarchy stats travel through the Result's JSON form.
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if _, ok := wire["hierarchy"]; !ok {
		t.Fatal("no \"hierarchy\" key in result JSON")
	}

	// A flat run reports none.
	res, err = ff.Partition(g, ff.Options{K: 8, Method: "fusion-fission", Seed: 1, MaxSteps: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hierarchy != nil {
		t.Fatal("flat run reported hierarchy stats")
	}
}

func TestMethodInfosMultilevelFlags(t *testing.T) {
	want := map[string]bool{
		"fusion-fission": true,
		"annealing":      true,
		"ant-colony":     true,
		"genetic":        true,
	}
	for _, mi := range ff.MethodInfos() {
		if mi.Multilevel != want[mi.ID] {
			t.Errorf("%s: multilevel = %v, want %v", mi.ID, mi.Multilevel, want[mi.ID])
		}
		if mi.Multilevel && !mi.Metaheuristic {
			t.Errorf("%s: multilevel but not metaheuristic", mi.ID)
		}
	}
}
