package main

import (
	"encoding/json"
	"strings"
	"testing"

	ff "repro"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
)

// fixture is a 4x4 grid cut into its left and right halves.
func fixture(t *testing.T) (*graph.Graph, partitionResponse) {
	t.Helper()
	g := graph.Grid2D(4, 4)
	parts := make([]int32, 16)
	for v := range parts {
		if v%4 >= 2 {
			parts[v] = 1
		}
	}
	p, err := partition.FromAssignment(g, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	cut, ncut, mcut := objective.EvaluateAll(p)
	return g, partitionResponse{JobID: "job-000001", Status: "done",
		Result: &ff.Result{Parts: parts, NumParts: 2, Cut: cut, Ncut: ncut, Mcut: mcut}}
}

func encode(t *testing.T, r partitionResponse) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// clone deep-copies a reply so a corruption touches only the copy.
func clone(r partitionResponse) partitionResponse {
	res := *r.Result
	res.Parts = append([]int32(nil), r.Result.Parts...)
	r.Result = &res
	return r
}

func TestVerifyPartitionAcceptsCorrectReply(t *testing.T) {
	g, good := fixture(t)
	if _, err := verifyPartition(encode(t, good), g, 2); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
}

func TestVerifyPartitionRejectsCorruption(t *testing.T) {
	g, good := fixture(t)
	for _, c := range []struct {
		name, want string
		corrupt    func(r *partitionResponse)
	}{
		{"failed status", "status", func(r *partitionResponse) { r.Status = "failed" }},
		{"queued status", "status", func(r *partitionResponse) { r.Status = "queued" }},
		{"cancelled", "cancelled", func(r *partitionResponse) { r.Result.Cancelled = true }},
		{"no result", "without a result", func(r *partitionResponse) { r.Result = nil }},
		{"short parts", "labels for", func(r *partitionResponse) { r.Result.Parts = r.Result.Parts[:15] }},
		{"long parts", "labels for", func(r *partitionResponse) { r.Result.Parts = append(r.Result.Parts, 0) }},
		{"label k", "outside", func(r *partitionResponse) { r.Result.Parts[3] = 2 }},
		{"negative label", "outside", func(r *partitionResponse) { r.Result.Parts[3] = -1 }},
		{"moved vertex", "cut", func(r *partitionResponse) { r.Result.Parts[0] = 1 }},
		{"cut off", "cut =", func(r *partitionResponse) { r.Result.Cut *= 1.001 }},
		{"ncut off", "ncut =", func(r *partitionResponse) { r.Result.Ncut *= 1.001 }},
		{"mcut off", "mcut =", func(r *partitionResponse) { r.Result.Mcut *= 0.999 }},
	} {
		r := clone(good)
		c.corrupt(&r)
		if _, err := verifyPartition(encode(t, r), g, 2); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
	for _, body := range []string{"", "{", `{"status":"done","result":{"parts":"x"}}`} {
		if _, err := verifyPartition([]byte(body), g, 2); err == nil {
			t.Errorf("undecodable reply %q accepted", body)
		}
	}
}

func TestVerifyPartitionToleratesRounding(t *testing.T) {
	g, good := fixture(t)
	r := clone(good)
	r.Result.Mcut *= 1 + 1e-13
	if _, err := verifyPartition(encode(t, r), g, 2); err != nil {
		t.Errorf("a last-digit difference was rejected: %v", err)
	}
}

func TestVerifyRepeat(t *testing.T) {
	_, orig := fixture(t)
	hit := clone(orig)
	hit.Cached = true
	if err := verifyRepeat(&orig, &hit); err != nil {
		t.Errorf("identical cached repeat rejected: %v", err)
	}
	miss := clone(orig)
	if err := verifyRepeat(&orig, &miss); err == nil {
		t.Error("a repeat recomputed instead of served from the cache was accepted")
	}
	moved := clone(hit)
	moved.Result.Parts[5] = 1 - moved.Result.Parts[5]
	if err := verifyRepeat(&orig, &moved); err == nil {
		t.Error("a repeat with different parts was accepted")
	}
}

func TestVerifyMutateID(t *testing.T) {
	g := graph.Grid2D(4, 4)
	derived, err := g.WithEdits([]graph.EdgeEdit{{Op: "remove", U: 0, V: 1}, {Op: "add", U: 0, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyMutateID(graph.Digest(derived), derived); err != nil {
		t.Errorf("matching id rejected: %v", err)
	}
	if err := verifyMutateID(graph.Digest(g), derived); err == nil {
		t.Error("the parent's id accepted for the derived graph")
	}
}

func TestVerifyWarmFloor(t *testing.T) {
	g, good := fixture(t)
	worse := make([]int32, 16)
	for v := range worse {
		worse[v] = int32(v % 2) // a checkerboard of columns: every edge cut
	}
	if err := verifyWarmFloor(good.Result, g, worse, 2); err != nil {
		t.Errorf("a result better than its warm seed rejected: %v", err)
	}
	p, _ := partition.FromAssignment(g, worse, 2)
	bad := &ff.Result{Parts: worse, Mcut: objective.MCut.Evaluate(p)}
	if err := verifyWarmFloor(bad, g, good.Result.Parts, 2); err == nil {
		t.Error("a result worse than its warm seed accepted")
	}
}

func TestAccounting(t *testing.T) {
	before := counters{hits: 5, misses: 7, coalesced: 2}
	ok := counters{hits: 5 + 10, misses: 7 + 30, coalesced: 2}
	if err := checkAccounting(before, ok, 10, 30); err != nil {
		t.Errorf("matching deltas rejected: %v", err)
	}
	if got := hitRatio(before, ok); got != 0.25 {
		t.Errorf("hit ratio %v, want exactly 0.25", got)
	}
	for name, after := range map[string]counters{
		"missing hit":    {hits: 5 + 9, misses: 7 + 31, coalesced: 2},
		"extra miss":     {hits: 5 + 10, misses: 7 + 31, coalesced: 2},
		"coalesced":      {hits: 5 + 10, misses: 7 + 30, coalesced: 3},
		"hit not a miss": {hits: 5 + 11, misses: 7 + 29, coalesced: 2},
	} {
		if err := checkAccounting(before, after, 10, 30); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got := hitRatio(before, before); got != 0 {
		t.Errorf("empty window hit ratio %v", got)
	}
}

func TestHealthzDecoding(t *testing.T) {
	var h healthz
	body := `{"status":"ok","pool":{"submitted":9,"coalesced":3},"cache":{"hits":4,"misses":5},"store":{"mem_entries":2}}`
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if c := countersOf(h); c != (counters{hits: 4, misses: 5, coalesced: 3}) || h.Store.MemEntries != 2 {
		t.Errorf("decoded %+v, %d entries", c, h.Store.MemEntries)
	}
}
