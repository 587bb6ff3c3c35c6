package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	ff "repro"
	"repro/internal/graph"
)

// These tests pin down the service half of cooperative cancellation: a
// DELETE'd job must stop its computation (not just be marked cancelled),
// releasing its worker slot promptly and leaving no goroutine behind. A
// hand-rolled goroutine-count check stands in for go.uber.org/goleak, which
// this repository does not depend on.

// deleteJob issues DELETE /v1/jobs/{id} and returns the HTTP status code.
func deleteJob(t *testing.T, url, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr partitionResponse
	_ = json.NewDecoder(resp.Body).Decode(&pr)
	return resp.StatusCode
}

func TestCancelledJobFreesWorkerSlot(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	// Pin the only worker with a job that would otherwise run for 30s.
	code, hog := post(t, ts, slowJob("30s"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	// Wait until it is actually running (occupying the slot).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got partitionResponse
		if code := getJSON(t, ts.URL+"/v1/jobs/"+hog.JobID, &got); code != http.StatusOK {
			t.Fatalf("poll: code %d", code)
		}
		if got.Status == statusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if code := deleteJob(t, ts.URL, hog.JobID); code != http.StatusOK {
		t.Fatalf("cancel: code %d", code)
	}

	// The slot must come back promptly: a fresh synchronous job completes
	// in well under the 30s the cancelled computation had left.
	req := baseRequest()
	req.NoCache = true
	start := time.Now()
	code, pr := post(t, ts, req)
	if code != http.StatusOK || pr.Result == nil {
		t.Fatalf("job after cancel: code %d, %+v", code, pr)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("worker slot held for %v after cancellation", waited)
	}
}

func TestCancelledJobLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := New(Config{Workers: 2, QueueDepth: 8, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := decodeGraph(ring(64), graph.MaxVertices)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ff.Normalize(ff.Options{K: 4, Method: "fusion-fission", Budget: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.pool.submit(g, opt, "", time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Let the computation start, then cancel it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _, _, _ := j.snapshot()
		if st == statusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if cancelled, found := s.pool.cancelJob(j.id); !cancelled || !found {
		t.Fatalf("cancelJob: cancelled=%v found=%v", cancelled, found)
	}
	<-j.done

	// Close waits for the workers; if the cancelled solver were still
	// computing, this would block for its whole 30s budget.
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked: the cancelled computation still holds its worker")
	}

	// Workers and solver gone: the goroutine count returns to its baseline
	// (small slack for runtime/test-harness goroutines winding down).
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak: %d before, %d after cancelled job", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDifferentTimeoutsDoNotCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	// Identical cacheable requests that differ only in timeout must not
	// share a job: the shorter deadline could truncate the run and hand the
	// longer-timeout caller a partial result it never asked for.
	f := false
	short := PartitionRequest{
		Graph: ring(64), K: 4, Method: "fusion-fission",
		Budget: "2s", Timeout: "150ms", Wait: &f,
	}
	long := short
	long.Timeout = "30s"
	if code, _ := post(t, ts, short); code != http.StatusAccepted {
		t.Fatal("short submit failed")
	}
	if code, _ := post(t, ts, long); code != http.StatusAccepted {
		t.Fatal("long submit failed")
	}
	stats := s.pool.snapshot()
	if stats.Submitted != 2 || stats.Coalesced != 0 {
		t.Fatalf("requests with different timeouts coalesced: %+v", stats)
	}
	// Same timeout still coalesces.
	if code, _ := post(t, ts, long); code != http.StatusAccepted {
		t.Fatal("repeat submit failed")
	}
	if stats := s.pool.snapshot(); stats.Coalesced != 1 {
		t.Fatalf("identical request did not coalesce: %+v", stats)
	}
}

func TestDeadlinePartialResultNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	// A cacheable metaheuristic job whose deadline expires mid-run: the
	// caller gets the best-so-far partition, marked cancelled, and a repeat
	// of the identical request must not be served from the cache. Submitted
	// asynchronously and polled, so the test never races the waiter timer
	// against the job deadline.
	f := false
	req := PartitionRequest{
		Graph:   ring(64),
		K:       4,
		Method:  "fusion-fission",
		Budget:  "30s",
		Timeout: "150ms",
		Wait:    &f,
	}
	code, pr := post(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d, %+v", code, pr)
	}
	deadline := time.Now().Add(10 * time.Second)
	var got partitionResponse
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+pr.JobID, &got); code != http.StatusOK {
			t.Fatalf("poll: code %d", code)
		}
		if got.Status != statusQueued && got.Status != statusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Status != statusDone || got.Result == nil {
		t.Fatalf("deadline-bounded job: %+v", got)
	}
	if !got.Result.Cancelled {
		t.Fatalf("mid-run deadline should mark the result cancelled: %+v", got.Result)
	}
	// A cached partial would answer the resubmission instantly with
	// Cached=true and status 200; a fresh computation is a 202.
	if code, pr2 := post(t, ts, req); code != http.StatusAccepted || pr2.Cached {
		t.Fatalf("partial result served from cache: code %d, %+v", code, pr2)
	}
}
