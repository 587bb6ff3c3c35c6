package main

import (
	"encoding/json"
	"fmt"

	ff "repro"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
)

// verifyPartition checks one 2xx POST /v1/partition reply against the
// graph the benchmark sent: a finished, uncancelled job, one label in
// [0,k) per vertex, and cut, ncut and mcut equal to a from-scratch
// evaluation of the returned parts.
func verifyPartition(body []byte, g *graph.Graph, k int) (*partitionResponse, error) {
	var resp partitionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("undecodable reply (%d bytes): %v", len(body), err)
	}
	if resp.Status != "done" {
		return nil, fmt.Errorf("status %q, want done (error %q)", resp.Status, resp.Error)
	}
	res := resp.Result
	if res == nil {
		return nil, fmt.Errorf("done without a result")
	}
	if res.Cancelled {
		return nil, fmt.Errorf("result is cancelled (partial)")
	}
	if len(res.Parts) != g.NumVertices() {
		return nil, fmt.Errorf("%d labels for %d vertices", len(res.Parts), g.NumVertices())
	}
	for v, a := range res.Parts {
		if a < 0 || int(a) >= k {
			return nil, fmt.Errorf("vertex %d has label %d outside [0,%d)", v, a, k)
		}
	}
	p, err := partition.FromAssignment(g, res.Parts, k)
	if err != nil {
		return nil, err
	}
	cut, ncut, mcut := objective.EvaluateAll(p)
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"cut", res.Cut, cut}, {"ncut", res.Ncut, ncut}, {"mcut", res.Mcut, mcut}} {
		if !relClose(c.got, c.want) {
			return nil, fmt.Errorf("%s = %v, but the parts evaluate to %v", c.name, c.got, c.want)
		}
	}
	return &resp, nil
}

// verifyRepeat checks a verbatim repeat against the reply to the request it
// repeats: a cache hit with the identical parts.
func verifyRepeat(orig, rep *partitionResponse) error {
	if !rep.Cached {
		return fmt.Errorf("repeat of a completed request was not served from the cache")
	}
	if !equalParts(orig.Result.Parts, rep.Result.Parts) {
		return fmt.Errorf("repeat's parts differ from the original reply's")
	}
	return nil
}

// verifyMutateID checks the id a mutate returned against the digest of the
// graph the benchmark derived locally by applying the same edits.
func verifyMutateID(got string, derived *graph.Graph) error {
	if want := graph.Digest(derived); got != want {
		return fmt.Errorf("mutate returned id %s, the locally derived graph hashes to %s", got, want)
	}
	return nil
}

// verifyWarmFloor checks the warm-start guarantee: the result is no worse
// under Mcut than the raw warm seed evaluated on the mutated graph.
func verifyWarmFloor(res *ff.Result, g *graph.Graph, warm []int32, k int) error {
	p, err := partition.FromAssignment(g, warm, k)
	if err != nil {
		return fmt.Errorf("warm seed: %v", err)
	}
	seed := objective.MCut.Evaluate(p)
	if res.Mcut > seed && !relClose(res.Mcut, seed) {
		return fmt.Errorf("mcut %v is worse than the raw warm seed's %v", res.Mcut, seed)
	}
	return nil
}

// counters are the /healthz counters the window is accounted by.
type counters struct {
	hits, misses, coalesced int64
}

func countersOf(h healthz) counters {
	return counters{hits: h.Cache.Hits, misses: h.Cache.Misses, coalesced: h.Pool.Coalesced}
}

// checkAccounting compares the window's counter deltas with what the sent
// traffic implies: one cache hit per completed repeat, one miss per fresh
// request, and no coalescing (no two in-flight requests are identical).
func checkAccounting(before, after counters, wantHits, wantMisses int64) error {
	d := counters{after.hits - before.hits, after.misses - before.misses, after.coalesced - before.coalesced}
	if d.hits != wantHits || d.misses != wantMisses || d.coalesced != 0 {
		return fmt.Errorf("cache accounting: %d hits, %d misses, %d coalesced; traffic implies %d, %d, 0",
			d.hits, d.misses, d.coalesced, wantHits, wantMisses)
	}
	return nil
}

// hitRatio is the window's cache hit ratio from counter deltas.
func hitRatio(before, after counters) float64 {
	h, m := after.hits-before.hits, after.misses-before.misses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func equalParts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
