package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// sendBody sends body to url and returns the status and the reply. With
// knownLength false the request goes out chunked, so the server sees no
// Content-Length.
func sendBody(t *testing.T, method, url string, body []byte, knownLength bool) (int, []byte) {
	t.Helper()
	var r io.Reader = bytes.NewReader(body)
	if !knownLength {
		r = struct{ io.Reader }{r}
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// TestOversizedBodyAnswers: a body longer than MaxBodyBytes is answered as
// a stream decoder reading the limited body would answer it. A first JSON
// value that ends before the limit is decoded and served, whatever follows
// it; one that runs into the limit is refused with the reader's error. This
// holds on every route that decodes JSON, with and without a
// Content-Length.
func TestOversizedBodyAnswers(t *testing.T) {
	const limit = 1024
	_, ts := newTestServer(t, Config{MaxBodyBytes: limit})
	padding := bytes.Repeat([]byte("x"), 2*limit)
	padded := func(s string) []byte { return append([]byte(s), padding...) }
	const tooLarge = `{"error":"bad request body: http: request body too large"}` + "\n"
	request := `{"graph":{"n":8,"edges":[[0,1],[1,2],[2,3],[3,0],[4,5],[5,6],[6,7],[7,4],[0,4]]},"k":2,"seed":1,"max_steps":40}`
	upload := `{"n":6,"edges":[[0,1],[1,2],[2,0],[3,4],[4,5],[5,3],[0,3]]}`
	mutate := `{"edits":[{"op":"remove","u":0,"v":3},{"op":"add","u":1,"v":4,"w":2}]}`
	huge := `"` + strings.Repeat("y", 2*limit) + `"`

	id := func(reply []byte) string {
		var gr graphResponse
		if err := json.Unmarshal(reply, &gr); err != nil || gr.ID == "" {
			t.Fatalf("reply %s: no graph id (%v)", reply, err)
		}
		return gr.ID
	}
	code, reply := sendBody(t, http.MethodPut, ts.URL+"/v1/graphs", []byte(upload), true)
	if code/100 != 2 {
		t.Fatalf("upload: %d %s", code, reply)
	}
	base := id(reply)
	code, reply = sendBody(t, http.MethodPost, ts.URL+"/v1/graphs/"+base+"/mutate", []byte(mutate), true)
	if code/100 != 2 {
		t.Fatalf("mutate: %d %s", code, reply)
	}
	mutated := id(reply)
	_, want := post(t, ts, request)
	if want.Result == nil {
		t.Fatalf("partition: no result: %+v", want)
	}

	for _, known := range []bool{true, false} {
		code, reply := sendBody(t, http.MethodPost, ts.URL+"/v1/partition", padded(request), known)
		var got partitionResponse
		if err := json.Unmarshal(reply, &got); err != nil || code != http.StatusOK || got.Result == nil ||
			!reflect.DeepEqual(got.Result.Parts, want.Result.Parts) {
			t.Errorf("partition, early end, length known %v: %d %s, want 200 with parts %v", known, code, reply, want.Result.Parts)
		}
		code, reply = sendBody(t, http.MethodPut, ts.URL+"/v1/graphs", padded(upload), known)
		if code/100 != 2 || id(reply) != base {
			t.Errorf("upload, early end, length known %v: %d %s, want id %s", known, code, reply, base)
		}
		code, reply = sendBody(t, http.MethodPost, ts.URL+"/v1/graphs/"+base+"/mutate", padded(mutate), known)
		if code/100 != 2 || id(reply) != mutated {
			t.Errorf("mutate, early end, length known %v: %d %s, want id %s", known, code, reply, mutated)
		}

		for _, tc := range []struct{ name, method, path, body string }{
			{"partition", http.MethodPost, "/v1/partition", `{"k":2,"method":` + huge + `}`},
			{"upload", http.MethodPut, "/v1/graphs", `{"metis":` + huge + `}`},
			{"mutate", http.MethodPost, "/v1/graphs/" + base + "/mutate", `{"edits":[{"op":` + huge + `}]}`},
		} {
			code, reply := sendBody(t, tc.method, ts.URL+tc.path, []byte(tc.body), known)
			if code != http.StatusBadRequest || string(reply) != tooLarge {
				t.Errorf("%s, value past the limit, length known %v: %d %s, want 400 %s", tc.name, known, code, reply, tooLarge)
			}
		}
	}
}
