package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestNonFiniteResultAnswers500 partitions a path into singletons: every part
// has zero internal weight, so its Mcut is +Inf, which JSON cannot encode.
// The server must answer 500 with a JSON error naming the job, not a 200
// with an empty body.
func TestNonFiniteResultAnswers500(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"graph": {"n": 3, "edges": [[0,1],[1,2]]}, "k": 3, "objective": "mcut",
		"method": "fusion-fission", "seed": 1, "max_steps": 50, "budget": "10s", "no_cache": true}`
	resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("status %d, body is not JSON: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (error %q)", resp.StatusCode, e.Error)
	}
	if !strings.Contains(e.Error, "result of job ") || !strings.Contains(e.Error, "Inf") {
		t.Fatalf("error %q does not name the job and the non-finite value", e.Error)
	}
}
