package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ff "repro"
	"repro/internal/graph"
)

// newTestServer spins up the service behind httptest and tears it down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// twoSquares is the facade test graph: two 4-cycles joined by one edge. The
// natural 2-partition is one square per part.
func twoSquares() GraphSpec {
	return GraphSpec{N: 8, Edges: [][]float64{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 7}, {7, 4},
		{0, 4},
	}}
}

// ring returns an n-cycle as an edge list.
func ring(n int) GraphSpec {
	edges := make([][]float64, n)
	for i := 0; i < n; i++ {
		edges[i] = []float64{float64(i), float64((i + 1) % n)}
	}
	return GraphSpec{N: n, Edges: edges}
}

func post(t *testing.T, ts *httptest.Server, body any) (int, partitionResponse) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/partition", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr partitionResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, pr
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// baseRequest is a deterministic fusion-fission request: a fixed seed plus
// a step cap (with a generous budget) makes reruns bit-identical.
func baseRequest() PartitionRequest {
	return PartitionRequest{
		Graph:    twoSquares(),
		K:        2,
		Method:   "fusion-fission",
		Seed:     7,
		Budget:   "5s",
		MaxSteps: 2000,
	}
}

func TestPartitionEndToEndAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, pr := post(t, ts, baseRequest())
	if code != http.StatusOK {
		t.Fatalf("first POST: code %d, resp %+v", code, pr)
	}
	if pr.Status != statusDone || pr.Cached || pr.Result == nil {
		t.Fatalf("first POST: %+v", pr)
	}
	if len(pr.Result.Parts) != 8 || pr.Result.NumParts != 2 {
		t.Fatalf("bad partition: %+v", pr.Result)
	}
	if pr.Result.Mcut <= 0 {
		t.Fatalf("Mcut = %g", pr.Result.Mcut)
	}

	code, pr2 := post(t, ts, baseRequest())
	if code != http.StatusOK || !pr2.Cached {
		t.Fatalf("second POST not a cache hit: code %d, %+v", code, pr2)
	}
	if !reflect.DeepEqual(pr.Result.Parts, pr2.Result.Parts) {
		t.Fatalf("cache returned different parts: %v vs %v", pr.Result.Parts, pr2.Result.Parts)
	}
}

func TestMETISAndEdgeListShareCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// The same 4-ring, once as METIS text, once as an edge list (in a
	// scrambled order): content hashing must land both on one cache entry.
	metis := PartitionRequest{
		Graph:  GraphSpec{METIS: "4 4\n2 4\n1 3\n2 4\n3 1\n"},
		K:      2,
		Method: "multilevel-bi",
	}
	edges := PartitionRequest{
		Graph:  GraphSpec{N: 4, Edges: [][]float64{{2, 3}, {0, 1}, {3, 0}, {1, 2}}},
		K:      2,
		Method: "multilevel-bi",
	}
	if code, pr := post(t, ts, metis); code != http.StatusOK || pr.Cached {
		t.Fatalf("metis request: code %d, %+v", code, pr)
	}
	code, pr := post(t, ts, edges)
	if code != http.StatusOK || !pr.Cached {
		t.Fatalf("edge-list request should hit the metis entry: code %d, cached %v", code, pr.Cached)
	}
}

func TestCacheDeterminismWithNoCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := baseRequest()
	_, first := post(t, ts, req)

	// Force two fresh computations; a fixed seed plus a step cap must
	// reproduce the identical partition every time.
	req.NoCache = true
	for i := 0; i < 2; i++ {
		code, pr := post(t, ts, req)
		if code != http.StatusOK || pr.Cached {
			t.Fatalf("no_cache run %d: code %d, cached %v", i, code, pr.Cached)
		}
		if !reflect.DeepEqual(first.Result.Parts, pr.Result.Parts) {
			t.Fatalf("run %d diverged: %v vs %v", i, first.Result.Parts, pr.Result.Parts)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256})

	// 24 clients fire 4 distinct deterministic requests; every response
	// for a given seed must carry the identical partition, whether it was
	// computed, coalesced or cached.
	const clients = 24
	var (
		mu      sync.Mutex
		bySeeds = map[int64][]int32{}
		wg      sync.WaitGroup
	)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := baseRequest()
			req.Seed = int64(c % 4)
			code, pr := post(t, ts, req)
			if code != http.StatusOK || pr.Result == nil {
				errs <- fmt.Errorf("client %d: code %d, resp %+v", c, code, pr)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := bySeeds[req.Seed]; ok {
				if !reflect.DeepEqual(prev, pr.Result.Parts) {
					errs <- fmt.Errorf("seed %d: divergent partitions under concurrency", req.Seed)
				}
			} else {
				bySeeds[req.Seed] = pr.Result.Parts
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := s.pool.snapshot()
	if stats.Submitted < 4 {
		t.Fatalf("expected at least 4 real submissions, got %d", stats.Submitted)
	}
	cs := s.cache.stats()
	if got := stats.Coalesced + cs.Hits; got != clients-stats.Submitted {
		t.Errorf("accounting off: %d submitted, %d coalesced, %d cache hits for %d clients",
			stats.Submitted, stats.Coalesced, cs.Hits, clients)
	}
}

// slowJob returns an async no-cache request that pins a worker for roughly
// budget (the step cap is absent, so the budget binds).
func slowJob(budget string) PartitionRequest {
	f := false
	return PartitionRequest{
		Graph:   ring(64),
		K:       4,
		Method:  "fusion-fission",
		Budget:  budget,
		Wait:    &f,
		NoCache: true,
	}
}

func TestDeadlineExpiresQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	// Pin the only worker, then submit a synchronous request whose job
	// deadline elapses while it is still queued. The waiter gets its 504
	// at the timeout, without blocking until the worker frees up…
	if code, pr := post(t, ts, slowJob("600ms")); code != http.StatusAccepted {
		t.Fatalf("slow job: code %d, %+v", code, pr)
	}
	req := baseRequest()
	req.NoCache = true
	req.Timeout = "50ms"
	start := time.Now()
	code, pr := post(t, ts, req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expected 504, got %d: %+v", code, pr)
	}
	if waited := time.Since(start); waited > 400*time.Millisecond {
		t.Fatalf("waiter blocked %v past its 50ms timeout", waited)
	}

	// …and once the worker reaches the expired job, it is recorded as
	// failed with the deadline error.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got partitionResponse
		if code := getJSON(t, ts.URL+"/v1/jobs/"+pr.JobID, &got); code != http.StatusOK {
			t.Fatalf("poll: code %d", code)
		}
		if got.Status == statusFailed {
			if !strings.Contains(got.Error, "deadline") {
				t.Fatalf("failed without deadline error: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expired job never failed: %+v", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	code, running := post(t, ts, slowJob("800ms"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	code, queued := post(t, ts, slowJob("800ms"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}

	// Cancel the queued job, then the running one.
	for _, id := range []string{queued.JobID, running.JobID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var pr partitionResponse
		json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || pr.Status != statusCancelled {
			t.Fatalf("cancel %s: code %d, %+v", id, resp.StatusCode, pr)
		}
		var got partitionResponse
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &got); code != http.StatusOK || got.Status != statusCancelled {
			t.Fatalf("poll after cancel: code %d, %+v", code, got)
		}
	}

	// Cancellation is idempotent: a second DELETE still reports cancelled.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("double cancel: code %d", resp.StatusCode)
	}
	var e errorResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", &e); code != http.StatusNotFound {
		t.Fatalf("unknown job: code %d", code)
	}

	// Cancelling a job that already completed conflicts.
	done := baseRequest()
	done.NoCache = true
	code, pr := post(t, ts, done)
	if code != http.StatusOK {
		t.Fatalf("completed job: code %d", code)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+pr.JobID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel after done: code %d", resp.StatusCode)
	}
}

func TestCoalescedWaiterKeepsOwnTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	// A long cacheable job, submitted asynchronously…
	slow := PartitionRequest{Graph: ring(64), K: 4, Budget: "700ms"}
	f := false
	slow.Wait = &f
	if code, _ := post(t, ts, slow); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	// …then an identical synchronous request with a much shorter timeout.
	// It coalesces onto the running job but must still give up at its own
	// deadline, pointing at the poll URL.
	slow.Wait = nil
	slow.Timeout = "60ms"
	start := time.Now()
	code, pr := post(t, ts, slow)
	if code != http.StatusGatewayTimeout || pr.Poll == "" {
		t.Fatalf("coalesced waiter: code %d, %+v", code, pr)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("waiter held for %v despite 60ms timeout", waited)
	}
}

func TestQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// First job occupies the worker, second fills the one queue slot, the
	// third must bounce with 503.
	if code, _ := post(t, ts, slowJob("700ms")); code != http.StatusAccepted {
		t.Fatalf("job 1: code %d", code)
	}
	if code, _ := post(t, ts, slowJob("700ms")); code != http.StatusAccepted {
		t.Fatalf("job 2: code %d", code)
	}
	code, pr := post(t, ts, slowJob("700ms"))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("job 3: expected 503, got %d: %+v", code, pr)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := baseRequest()
	f := false
	req.Wait = &f
	code, pr := post(t, ts, req)
	if code != http.StatusAccepted || pr.JobID == "" || pr.Poll == "" {
		t.Fatalf("async submit: code %d, %+v", code, pr)
	}

	deadline := time.Now().Add(10 * time.Second)
	var got partitionResponse
	for {
		if code := getJSON(t, ts.URL+pr.Poll, &got); code != http.StatusOK {
			t.Fatalf("poll: code %d", code)
		}
		if got.Status == statusDone {
			break
		}
		if got.Status == statusFailed || got.Status == statusCancelled {
			t.Fatalf("job ended %s: %s", got.Status, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Result == nil || got.Result.NumParts != 2 {
		t.Fatalf("async result: %+v", got.Result)
	}

	// The finished async job populated the cache for synchronous callers.
	req.Wait = nil
	if code, pr := post(t, ts, req); code != http.StatusOK || !pr.Cached {
		t.Fatalf("expected cache hit after async job: code %d, cached %v", code, pr.Cached)
	}
}

func TestMalformedPayloads(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	square := GraphSpec{N: 4, Edges: [][]float64{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}
	cases := []struct {
		name string
		body any
		want int
	}{
		{"invalid json", `{"graph": {`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"missing graph", PartitionRequest{K: 2}, http.StatusBadRequest},
		{"both encodings", PartitionRequest{K: 2, Graph: GraphSpec{METIS: "1 0\n\n", N: 1}}, http.StatusBadRequest},
		{"zero k", PartitionRequest{Graph: square, K: 0}, http.StatusBadRequest},
		{"k exceeds n", PartitionRequest{Graph: square, K: 9}, http.StatusBadRequest},
		{"unknown method", PartitionRequest{Graph: square, K: 2, Method: "magic"}, http.StatusBadRequest},
		{"bad objective", PartitionRequest{Graph: square, K: 2, Objective: "mincut"}, http.StatusBadRequest},
		{"bad budget", PartitionRequest{Graph: square, K: 2, Budget: "fast"}, http.StatusBadRequest},
		{"negative budget", PartitionRequest{Graph: square, K: 2, Budget: "-2s"}, http.StatusBadRequest},
		{"negative max_steps", PartitionRequest{Graph: square, K: 2, MaxSteps: -5}, http.StatusBadRequest},
		{"bad timeout", PartitionRequest{Graph: square, K: 2, Timeout: "later"}, http.StatusBadRequest},
		{"edge arity", PartitionRequest{K: 2, Graph: GraphSpec{N: 3, Edges: [][]float64{{0}}}}, http.StatusBadRequest},
		{"fractional endpoint", PartitionRequest{K: 2, Graph: GraphSpec{N: 3, Edges: [][]float64{{0, 1.5}}}}, http.StatusBadRequest},
		{"self loop", PartitionRequest{K: 2, Graph: GraphSpec{N: 3, Edges: [][]float64{{1, 1}}}}, http.StatusBadRequest},
		{"out of range", PartitionRequest{K: 2, Graph: GraphSpec{N: 3, Edges: [][]float64{{0, 5}}}}, http.StatusBadRequest},
		{"zero weight", PartitionRequest{K: 2, Graph: GraphSpec{N: 3, Edges: [][]float64{{0, 1, 0}}}}, http.StatusBadRequest},
		{"bad metis header", PartitionRequest{K: 2, Graph: GraphSpec{METIS: "x y\n"}}, http.StatusBadRequest},
		{"asymmetric metis", PartitionRequest{K: 2, Graph: GraphSpec{METIS: "2 1\n2\n\n"}}, http.StatusBadRequest},
		{"vertex weight mismatch", PartitionRequest{K: 2, Graph: GraphSpec{N: 3, Edges: [][]float64{{0, 1}}, VertexWeights: []float64{1}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, pr := post(t, ts, tc.body)
			if code != tc.want {
				t.Fatalf("code %d, want %d (%+v)", code, tc.want, pr)
			}
			if pr.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}

	// Wrong verbs.
	if resp, err := http.Get(ts.URL + "/v1/partition"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/partition: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Post(ts.URL+"/healthz", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /healthz: %d", resp.StatusCode)
		}
	}
}

func TestMethodsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got struct {
		Methods    []ff.MethodInfo `json:"methods"`
		Objectives []string        `json:"objectives"`
	}
	if code := getJSON(t, ts.URL+"/v1/methods", &got); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if len(got.Objectives) != 3 {
		t.Fatalf("objectives: %v", got.Objectives)
	}
	table1, ext := 0, 0
	byID := map[string]ff.MethodInfo{}
	for _, m := range got.Methods {
		byID[m.ID] = m
		if m.Extension {
			ext++
		} else {
			table1++
		}
	}
	if table1 != 17 || ext != 4 {
		t.Fatalf("got %d table-1 and %d extension methods", table1, ext)
	}
	if m := byID["fusion-fission"]; !m.Metaheuristic || m.Label != "Fusion Fission" {
		t.Fatalf("fusion-fission metadata wrong: %+v", m)
	}
	if m := byID["multilevel-bi"]; m.Metaheuristic {
		t.Fatalf("multilevel-bi marked metaheuristic")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	var got struct {
		Status string     `json:"status"`
		Pool   poolStats  `json:"pool"`
		Cache  cacheStats `json:"cache"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &got); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if got.Status != "ok" || got.Pool.Workers != 3 || got.Cache.Capacity != 256 {
		t.Fatalf("healthz: %+v", got)
	}
}

// TestPanickingJobAnswers500: a job whose computation panics answers 500
// and counts as panicked, and its worker slot is released — the identical
// request repeated on the same one-worker pool runs afresh and completes
// normally. The counters are bumped before each reply is written.
func TestPanickingJobAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	var calls atomic.Int32
	// submit takes the pool lock, which orders this write before any job.
	s.pool.mu.Lock()
	s.pool.partition = func(ctx context.Context, g *graph.Graph, opt ff.Options, mon *ff.Monitor) (*ff.Result, error) {
		if calls.Add(1) == 1 {
			panic("boom")
		}
		return ff.PartitionMonitored(ctx, g, opt, mon)
	}
	s.pool.mu.Unlock()
	req := baseRequest()

	code, pr := post(t, ts, req)
	if code != http.StatusInternalServerError || pr.Status != statusFailed || !strings.Contains(pr.Error, "panicked: boom") {
		t.Fatalf("panicking job: code %d, resp %+v", code, pr)
	}
	code, pr = post(t, ts, req)
	if code != http.StatusOK || pr.Status != statusDone || pr.Result == nil {
		t.Fatalf("request after the panic: code %d, resp %+v", code, pr)
	}
	if st := s.pool.snapshot(); st.Panicked != 1 || st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("pool stats = %+v", st)
	}
}

// TestRepeatAfterFailureRunsFresh: the identical request sent as soon as a
// failed reply arrives must not coalesce onto the finished job — it gets a
// new job id and a fresh run — and /healthz already counts the failure when
// the failed reply is read.
func TestRepeatAfterFailureRunsFresh(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int32
	s.pool.mu.Lock()
	s.pool.partition = func(ctx context.Context, g *graph.Graph, opt ff.Options, mon *ff.Monitor) (*ff.Result, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("solver failed")
		}
		return ff.PartitionMonitored(ctx, g, opt, mon)
	}
	s.pool.mu.Unlock()
	req := baseRequest()

	code, first := post(t, ts, req)
	if code != http.StatusUnprocessableEntity || first.Status != statusFailed || first.Error != "solver failed" {
		t.Fatalf("failing job: code %d, resp %+v", code, first)
	}
	var health struct {
		Pool poolStats `json:"pool"`
	}
	if getJSON(t, ts.URL+"/healthz", &health); health.Pool.Failed != 1 || health.Pool.Completed != 0 {
		t.Fatalf("healthz after the failed reply: %+v", health.Pool)
	}
	code, second := post(t, ts, req)
	if code != http.StatusOK || second.Status != statusDone || second.Result == nil {
		t.Fatalf("repeat after the failure: code %d, resp %+v", code, second)
	}
	if second.JobID == first.JobID || calls.Load() != 2 {
		t.Fatalf("repeat reused job %s (%d runs)", second.JobID, calls.Load())
	}
	if st := s.pool.snapshot(); st.Submitted != 2 || st.Coalesced != 0 || st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("pool stats = %+v", st)
	}
}

// TestMultilevelRequest exercises the V-cycle through the HTTP API: the
// multilevel result carries hierarchy stats, lands on its own cache entry
// (distinct from the flat request), and /v1/methods advertises which
// methods honour the flag.
func TestMultilevelRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := PartitionRequest{
		Graph:    ring(240),
		K:        4,
		Method:   "fusion-fission",
		Seed:     3,
		Budget:   "5s",
		MaxSteps: 400,
	}
	code, flat := post(t, ts, req)
	if code != http.StatusOK || flat.Result == nil {
		t.Fatalf("flat POST: code %d, %+v", code, flat)
	}
	if flat.Result.Hierarchy != nil {
		t.Fatalf("flat run reported a hierarchy: %+v", flat.Result.Hierarchy)
	}

	req.Multilevel = true
	req.CoarsenTo = 30
	code, ml := post(t, ts, req)
	if code != http.StatusOK || ml.Result == nil {
		t.Fatalf("multilevel POST: code %d, %+v", code, ml)
	}
	if ml.Cached {
		t.Fatal("multilevel request hit the flat request's cache entry")
	}
	if ml.Result.NumParts != 4 || len(ml.Result.Parts) != 240 {
		t.Fatalf("bad multilevel partition: %+v", ml.Result)
	}
	h := ml.Result.Hierarchy
	if h == nil || h.Levels < 1 || h.CoarsestVertices >= 240 {
		t.Fatalf("hierarchy = %+v", h)
	}

	// Identical multilevel request: cache hit with identical parts.
	code, ml2 := post(t, ts, req)
	if code != http.StatusOK || !ml2.Cached {
		t.Fatalf("repeat multilevel POST not cached: code %d, %+v", code, ml2)
	}
	if !reflect.DeepEqual(ml.Result.Parts, ml2.Result.Parts) {
		t.Fatal("cache returned different parts")
	}

	// /v1/methods marks V-cycle support.
	var methods struct {
		Methods []ff.MethodInfo `json:"methods"`
	}
	if code := getJSON(t, ts.URL+"/v1/methods", &methods); code != http.StatusOK {
		t.Fatalf("GET /v1/methods: %d", code)
	}
	found := map[string]bool{}
	for _, m := range methods.Methods {
		if m.Multilevel {
			found[m.ID] = true
		}
	}
	want := []string{"fusion-fission", "annealing", "ant-colony", "genetic"}
	if len(found) != len(want) {
		t.Fatalf("multilevel methods = %v, want %v", found, want)
	}
	for _, id := range want {
		if !found[id] {
			t.Fatalf("%s not marked multilevel in %v", id, found)
		}
	}
}
