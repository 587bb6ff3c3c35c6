package main

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/server"
)

func TestTrafficIsAFunctionOfTheSeed(t *testing.T) {
	a, err := genAirspace(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genAirspace(7, 8)
	c, _ := genAirspace(8, 8)
	if a.fingerprint != b.fingerprint {
		t.Error("same seed, different traffic")
	}
	if a.fingerprint == c.fingerprint {
		t.Error("different seeds, same traffic")
	}
	seen := map[int64]bool{a.warmup.seed: true}
	for _, o := range a.clients[0] {
		if seen[o.seed] {
			t.Fatalf("request seed %d sent twice", o.seed)
		}
		seen[o.seed] = true
	}
}

func TestInlineBodyDecodesToTheSentGraph(t *testing.T) {
	tr, err := genAirspace(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	for _, seg := range tr.clients[0][0].body {
		body = append(body, seg...)
	}
	var req server.PartitionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	b, err := feedEdgeList(req.Graph)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if graph.Digest(g) != graph.Digest(tr.graph) || req.K != numParts || req.Seed != tr.clients[0][0].seed {
		t.Errorf("decoded request differs from the generated one")
	}
}

func TestRepeatsAreOneInFourAndPointBack(t *testing.T) {
	tr, err := genVCycleInline(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range tr.clients {
		for i, o := range ops {
			if (i%4 == 3) != (o.repeatOf >= 0) {
				t.Fatalf("op %d: repeatOf %d", i, o.repeatOf)
			}
			if o.repeatOf >= 0 && (o.repeatOf < i-3 || ops[o.repeatOf].repeatOf >= 0 || ops[o.repeatOf].seed != o.seed) {
				t.Fatalf("op %d repeats op %d, not a fresh op of its own group", i, o.repeatOf)
			}
		}
	}
}

func TestChurnEditsApplyInSequence(t *testing.T) {
	tr, err := genChurn(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	g := tr.graph
	for i, o := range tr.clients[0] {
		var req mutateRequest
		if err := json.Unmarshal(o.mutateBody, &req); err != nil {
			t.Fatal(err)
		}
		touched := map[uint64]bool{}
		for _, e := range req.Edits {
			if k := edgeKey(e.U, e.V); touched[k] {
				t.Fatalf("op %d touches edge {%d,%d} twice", i, e.U, e.V)
			} else {
				touched[k] = true
			}
		}
		next, err := g.WithEdits(req.Edits)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if next.NumEdges() != g.NumEdges() || len(req.Edits) != 2*int(math.Round(churnEditShare*float64(g.NumEdges()))) {
			t.Fatalf("op %d: %d edits, %d edges after, %d before", i, len(req.Edits), next.NumEdges(), g.NumEdges())
		}
		g = next
	}
}
