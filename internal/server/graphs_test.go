package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/graph"
)

// putGraph uploads a body to PUT /v1/graphs and decodes the response.
func putGraph(t *testing.T, base string, contentType string, body []byte) (int, graphResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/graphs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gr graphResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatalf("decoding upload response: %v", err)
	}
	return resp.StatusCode, gr
}

// putSpec uploads a GraphSpec as JSON.
func putSpec(t *testing.T, base string, spec GraphSpec) (int, graphResponse) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return putGraph(t, base, "application/json", body)
}

// mutateGraph POSTs edits to /v1/graphs/{id}/mutate.
func mutateGraph(t *testing.T, base, id string, edits []graph.EdgeEdit) (int, graphResponse) {
	t.Helper()
	body, err := json.Marshal(mutateRequest{Edits: edits})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/graphs/"+id+"/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gr graphResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatalf("decoding mutate response: %v", err)
	}
	return resp.StatusCode, gr
}

func doJSON(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestGraphUploadDedupAndPartitionByID is the stored-graph happy path:
// upload (twice, in two encodings) dedups onto one content id, a partition
// by id matches the inline result, and — because the cache keys on the same
// digest either way — the stored-graph job is a cache hit after the inline
// one computed.
func TestGraphUploadDedupAndPartitionByID(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, up := putSpec(t, ts.URL, twoSquares())
	if code != http.StatusCreated || !up.Created || up.N != 8 || up.M != 9 {
		t.Fatalf("first upload: code %d, %+v", code, up)
	}
	if len(up.ID) != 64 {
		t.Fatalf("id %q is not a sha256 hex digest", up.ID)
	}

	code, again := putSpec(t, ts.URL, twoSquares())
	if code != http.StatusOK || again.Created || again.ID != up.ID {
		t.Fatalf("re-upload did not dedup: code %d, %+v", code, again)
	}

	// The same graph as binary CSR bytes lands on the same id.
	g, err := decodeGraph(twoSquares(), graph.MaxVertices)
	if err != nil {
		t.Fatal(err)
	}
	code, bin := putGraph(t, ts.URL, "application/octet-stream", graph.EncodeBinary(g))
	if code != http.StatusOK || bin.Created || bin.ID != up.ID {
		t.Fatalf("binary upload did not dedup: code %d, %+v", code, bin)
	}

	// Inline run first, then by id: identical partitions, and the by-id job
	// hits the result cache because both key on the content digest.
	inline := baseRequest()
	code, pr := post(t, ts, inline)
	if code != http.StatusOK || pr.Result == nil {
		t.Fatalf("inline partition: code %d, %+v", code, pr)
	}
	byID := baseRequest()
	byID.Graph = GraphSpec{ID: up.ID}
	code, pr2 := post(t, ts, byID)
	if code != http.StatusOK || pr2.Result == nil {
		t.Fatalf("partition by id: code %d, %+v", code, pr2)
	}
	if !pr2.Cached {
		t.Fatal("stored-graph job missed the cache despite an identical inline run")
	}
	for v := range pr.Result.Parts {
		if pr.Result.Parts[v] != pr2.Result.Parts[v] {
			t.Fatalf("stored-graph partition diverges from inline at vertex %d", v)
		}
	}

	var meta graphResponse
	if code := getJSON(t, ts.URL+"/v1/graphs/"+up.ID, &meta); code != http.StatusOK || meta.N != 8 || meta.M != 9 {
		t.Fatalf("metadata: code %d, %+v", code, meta)
	}
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/v1/graphs", &stats); code != http.StatusOK || stats["mem_entries"].(float64) < 1 {
		t.Fatalf("store stats: code %d, %v", code, stats)
	}
}

// TestGraphNotFoundAndValidation pins the 404 and 400 contract for every
// stored-graph surface.
func TestGraphNotFoundAndValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const ghost = "00000000000000000000000000000000000000000000000000000000deadbeef"

	req := baseRequest()
	req.Graph = GraphSpec{ID: ghost}
	if code, pr := post(t, ts, req); code != http.StatusNotFound {
		t.Fatalf("partition by unknown id: code %d, %+v", code, pr)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/"+ghost); code != http.StatusNotFound {
		t.Fatalf("GET unknown id: code %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+ghost); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown id: code %d", code)
	}
	if code, _ := mutateGraph(t, ts.URL, ghost, []graph.EdgeEdit{{Op: "add", U: 0, V: 1}}); code != http.StatusNotFound {
		t.Fatalf("mutate unknown id: code %d", code)
	}

	// id + inline content in one spec is a client mistake, not a lookup.
	both := baseRequest()
	both.Graph.ID = ghost
	if code, _ := post(t, ts, both); code != http.StatusBadRequest {
		t.Fatalf("id + inline accepted: code %d", code)
	}
	// Uploads carry content, not an id.
	if code, _ := putSpec(t, ts.URL, GraphSpec{ID: ghost}); code != http.StatusBadRequest {
		t.Fatalf("upload of an id accepted: code %d", code)
	}
	if code, _ := putGraph(t, ts.URL, "application/octet-stream", []byte("junk")); code != http.StatusBadRequest {
		t.Fatalf("junk binary upload accepted: code %d", code)
	}
}

// TestGraphEvictionAnswers404 configures a memory-only store so small every
// upload evicts its predecessor: the evicted id must answer 404, the
// survivor must keep working.
func TestGraphEvictionAnswers404(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreMaxBytes: 1})

	_, first := putSpec(t, ts.URL, twoSquares())
	_, second := putSpec(t, ts.URL, ring(16))

	req := baseRequest()
	req.Graph = GraphSpec{ID: first.ID}
	if code, pr := post(t, ts, req); code != http.StatusNotFound {
		t.Fatalf("evicted id: code %d, %+v", code, pr)
	}
	req.Graph = GraphSpec{ID: second.ID}
	req.K = 2
	if code, pr := post(t, ts, req); code != http.StatusOK || pr.Result == nil {
		t.Fatalf("surviving id: code %d, %+v", code, pr)
	}
}

// TestGraphDeleteThenGone: a deleted graph's id answers 404 everywhere.
func TestGraphDeleteThenGone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, up := putSpec(t, ts.URL, twoSquares())
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+up.ID); code != http.StatusOK {
		t.Fatalf("delete: code %d", code)
	}
	req := baseRequest()
	req.Graph = GraphSpec{ID: up.ID}
	if code, _ := post(t, ts, req); code != http.StatusNotFound {
		t.Fatalf("partition after delete: code %d", code)
	}
}

// TestGraphStoreSurvivesRestart: with a spill directory, a second server
// over the same directory serves ids uploaded by the first.
func TestGraphStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id1, _, err := s1.store.Put(mustDecode(t, twoSquares()))
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	_, ts := newTestServer(t, Config{StoreDir: dir})
	req := baseRequest()
	req.Graph = GraphSpec{ID: id1}
	if code, pr := post(t, ts, req); code != http.StatusOK || pr.Result == nil {
		t.Fatalf("partition by id after restart: code %d, %+v", code, pr)
	}
}

// TestGraphMutateAndWarmStart is the incremental-repartitioning loop the
// store exists for: upload, solve, mutate a few edges, warm-start the
// repartition of the derived graph from the previous assignment.
func TestGraphMutateAndWarmStart(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, up := putSpec(t, ts.URL, twoSquares())

	cold := baseRequest()
	cold.Graph = GraphSpec{ID: up.ID}
	code, pr := post(t, ts, cold)
	if code != http.StatusOK || pr.Result == nil {
		t.Fatalf("cold solve: code %d, %+v", code, pr)
	}

	code, mut := mutateGraph(t, ts.URL, up.ID, []graph.EdgeEdit{
		{Op: "add", U: 2, V: 6, W: 1.5},
		{Op: "reweight", U: 0, V: 4, W: 2},
	})
	if code != http.StatusOK || mut.Parent != up.ID || mut.ID == up.ID || mut.M != 10 {
		t.Fatalf("mutate: code %d, %+v", code, mut)
	}
	// The parent stays addressable after the derivation.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/"+up.ID); code != http.StatusOK {
		t.Fatalf("parent gone after mutate: code %d", code)
	}

	warm := baseRequest()
	warm.Graph = GraphSpec{ID: mut.ID}
	warm.WarmStart = pr.Result.Parts
	code, wr := post(t, ts, warm)
	if code != http.StatusOK || wr.Result == nil {
		t.Fatalf("warm solve: code %d, %+v", code, wr)
	}
	if !wr.Result.WarmStart {
		t.Fatal("result not marked warm-started")
	}

	// Wrong-length warm starts are rejected before any work happens.
	bad := warm
	bad.WarmStart = []int32{0, 1}
	if code, _ := post(t, ts, bad); code != http.StatusBadRequest {
		t.Fatalf("short warm start accepted: code %d", code)
	}
	// Strict edit semantics surface as 400s.
	if code, _ := mutateGraph(t, ts.URL, mut.ID, []graph.EdgeEdit{{Op: "frob", U: 0, V: 1}}); code != http.StatusBadRequest {
		t.Fatalf("unknown op accepted: code %d", code)
	}
	if code, _ := mutateGraph(t, ts.URL, mut.ID, nil); code != http.StatusBadRequest {
		t.Fatalf("empty edit list accepted: code %d", code)
	}
}

// TestFederatedPartitionByStoredGraphID is the fleet pairing contract for
// stored graphs: each island holds its own copy of the graph under the
// identical content id, both submissions name only that id, and the jobs
// pair up and exchange — no inline graph bytes anywhere in the flow.
func TestFederatedPartitionByStoredGraphID(t *testing.T) {
	f := newFleet(t, 15*time.Second)

	var id string
	for i, base := range f.urls {
		code, up := putSpec(t, base, twoSquares())
		if code != http.StatusCreated {
			t.Fatalf("island %d upload: code %d", i, code)
		}
		if id == "" {
			id = up.ID
		} else if up.ID != id {
			t.Fatalf("content ids diverge across islands: %q vs %q", id, up.ID)
		}
	}

	req := federatedRequest()
	req.Graph = GraphSpec{ID: id}
	var prs [2]partitionResponse
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			code, pr := postURL(t, f.urls[i], req)
			if code != http.StatusOK {
				t.Errorf("island %d: code %d (%s)", i, code, pr.Error)
			}
			prs[i] = pr
			done <- struct{}{}
		}(i)
	}
	<-done
	<-done
	if t.Failed() {
		t.FailNow()
	}
	for i := 0; i < 2; i++ {
		if prs[i].Result == nil || prs[i].Result.ExchangeRounds == 0 {
			t.Fatalf("island %d did not exchange: %+v", i, prs[i])
		}
	}
	if a, b := prs[0].Result.ExchangeRounds, prs[1].Result.ExchangeRounds; a != b {
		t.Fatalf("exchange rounds diverge: %d vs %d", a, b)
	}
}
