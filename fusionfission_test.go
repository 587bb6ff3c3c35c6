package fusionfission

import (
	"bytes"
	"testing"
	"time"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(8)
	// Two squares joined by one edge.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}, {0, 4}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1], 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeEveryMethodRuns(t *testing.T) {
	g := smallGraph(t)
	for _, id := range Methods() {
		res, err := Partition(g, Options{
			K: 2, Method: id, Seed: 1,
			Budget: 80 * time.Millisecond, MaxSteps: 3000,
		})
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if res.NumParts != 2 {
			t.Errorf("%s: NumParts = %d", id, res.NumParts)
		}
		if len(res.Parts) != 8 {
			t.Errorf("%s: Parts length %d", id, len(res.Parts))
		}
		for _, p := range res.Parts {
			if p < 0 || p >= 2 {
				t.Errorf("%s: part id %d out of range", id, p)
			}
		}
		if res.Cut <= 0 || res.Mcut <= 0 {
			t.Errorf("%s: degenerate objectives %+v", id, res)
		}
		if res.Method != id {
			t.Errorf("%s: echoed method %q", id, res.Method)
		}
	}
}

func TestFacadeOptimalSquaresSplit(t *testing.T) {
	g := smallGraph(t)
	res, err := Partition(g, Options{K: 2, Method: "fusion-fission", Seed: 2, MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: cut the single bridge; paper convention counts it twice.
	if res.Cut != 2 {
		t.Fatalf("Cut = %g, want 2", res.Cut)
	}
}

func TestFacadeDefaults(t *testing.T) {
	g := smallGraph(t)
	res, err := Partition(g, Options{K: 2, Seed: 1, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "fusion-fission" {
		t.Fatalf("default method = %q", res.Method)
	}
}

func TestFacadeErrors(t *testing.T) {
	g := smallGraph(t)
	if _, err := Partition(g, Options{K: 2, Method: "does-not-exist"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := Partition(g, Options{K: 2, Objective: "modularity"}); err == nil {
		t.Fatal("unknown objective accepted")
	}
	if _, err := Partition(g, Options{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestFacadeKValidation(t *testing.T) {
	g := smallGraph(t) // 8 vertices
	cases := []struct {
		name    string
		k       int
		method  string
		wantErr bool
	}{
		{"negative", -3, "linear-bi", true},
		{"zero", 0, "linear-bi", true},
		{"zero default method", 0, "", true},
		{"one classical", 1, "linear-bi", false},
		{"n classical", 8, "linear-bi", false},
		{"n metaheuristic", 8, "fusion-fission", false},
		{"beyond n", 9, "linear-bi", true},
		{"beyond n metaheuristic", 9, "fusion-fission", true},
		{"far beyond n", 1000, "spectral-lanc-bi", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Partition(g, Options{K: c.k, Method: c.method, Seed: 1, MaxSteps: 500})
			if c.wantErr {
				if err == nil {
					t.Fatalf("K=%d method=%q accepted: %+v", c.k, c.method, res)
				}
				return
			}
			if err != nil {
				t.Fatalf("K=%d method=%q rejected: %v", c.k, c.method, err)
			}
			if res.NumParts != c.k {
				t.Fatalf("K=%d method=%q: NumParts = %d", c.k, c.method, res.NumParts)
			}
		})
	}
	// Normalize must reject invalid values too, so cache keys are never
	// built for requests the solvers would refuse. Parallelism: negative and
	// absurd widths are mistakes, not requests (every worker is a full
	// concurrent solver instance). A negative Budget would read as "no time
	// limit" in the solver loop, and a negative MaxSteps would run the method
	// default under a cache key distinct from MaxSteps 0.
	for _, bad := range []Options{
		{K: 0},
		{K: -1},
		{K: 2, Parallelism: -1},
		{K: 2, Parallelism: MaxParallelism + 1},
		{K: 2, Budget: -1},
		{K: 2, MaxSteps: -5},
	} {
		if _, err := Normalize(bad); err == nil {
			t.Errorf("Normalize accepted %+v", bad)
		}
	}
	// 0 normalizes to the serial width 1.
	if o, err := Normalize(Options{K: 2}); err != nil || o.Parallelism != 1 {
		t.Fatalf("zero Parallelism normalized to %d (err %v), want 1", o.Parallelism, err)
	}
}

func TestFacadeMETISRoundTrip(t *testing.T) {
	g := smallGraph(t)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 8 || g2.NumEdges() != 9 {
		t.Fatalf("round trip lost shape: %d/%d", g2.NumVertices(), g2.NumEdges())
	}
}

func TestFacadeAirspace(t *testing.T) {
	g, meta, err := GenerateAirspace(AirspaceSpec{
		Sectors: 150, Edges: 520, Hubs: 11, Flights: 3000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 150 || g.NumEdges() != 520 {
		t.Fatalf("airspace shape %d/%d", g.NumVertices(), g.NumEdges())
	}
	if len(meta.CountryNames) != 11 {
		t.Fatalf("countries = %d", len(meta.CountryNames))
	}
	res, err := Partition(g, Options{K: 6, Method: "multilevel-bi", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumParts != 6 {
		t.Fatalf("NumParts = %d", res.NumParts)
	}
}

func TestMethodsComplete(t *testing.T) {
	if len(Methods()) != 17 {
		t.Fatalf("Methods() lists %d ids, want the 17 Table 1 rows", len(Methods()))
	}
	if len(ExtensionMethods()) < 4 {
		t.Fatalf("ExtensionMethods() lists %d ids", len(ExtensionMethods()))
	}
}

func TestFacadeExtensionMethodsRun(t *testing.T) {
	g := smallGraph(t)
	for _, id := range ExtensionMethods() {
		res, err := Partition(g, Options{
			K: 2, Method: id, Seed: 3,
			Budget: 60 * time.Millisecond, MaxSteps: 400,
		})
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if res.NumParts != 2 {
			t.Errorf("%s: NumParts = %d", id, res.NumParts)
		}
	}
}
