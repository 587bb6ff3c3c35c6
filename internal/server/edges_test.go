package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/graph"
)

// FuzzEdgeListDecode: for any bytes, decoding into EdgeList and into
// [][]float64 must agree on the error text, nil versus empty slices and
// every value bit for bit — bare, through UnmarshalJSON directly, and as a
// request field, where encoding/json adds the field context to the error.
func FuzzEdgeListDecode(f *testing.F) {
	// The seeds cover the scanned form (whitespace, signs, zero,
	// exponents, subnormals, the 15-digit integer cutoff, empty edges) and
	// every fallback to encoding/json: null, strings, objects, bools,
	// deeper nesting, numbers out of float64 range, and malformed numbers
	// and punctuation.
	for _, s := range []string{
		`[[0,1],[1,2,3.5]]`,
		" [ [ 0 , 1 ] ,\t[1,2]\r\n] ",
		`[]`, `[[]]`, `[[],[0,1]]`,
		`[[-0,0,-0.0]]`, `[[1e308,-1e308,1.7976931348623157e308]]`,
		`[[5e-324,1e-320,2.2250738585072014e-308]]`, `[[1E2,1e+2,1e-2,-1.5E-3]]`,
		`[[999999999999999,-999999999999999,1000000000000000,12345678901234567]]`,
		`[[9007199254740993,18446744073709551616,100000000000000000000000]]`,
		`null`, `[null]`, `[[0,1,null]]`, `"x"`, `{}`, `[{"u":0}]`, `[[0,"1"]]`,
		`[[0,true]]`, `[[[0]]]`, `[[0,1e400]]`, `[[-1E+400]]`,
		`[[0,01]]`, `[[0,1.]]`, `[[0,-]]`, `[[0,+1]]`, `[[0,.5]]`, `[[0,1e]]`,
		`[[0,1],]`, `[[0 1]]`, `[[0,1],[1,2]`, `[[0,1]]x`, `[[0,1] [1,2]]`, ``,
	} {
		f.Add([]byte(s))
	}
	// A stand-in for the parent's request shape: the struct name and the
	// field path are what the error text reports.
	type GraphSpec struct {
		Edges [][]float64 `json:"edges"`
	}
	type request struct {
		Graph GraphSpec `json:"graph"`
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got EdgeList
		var want [][]float64
		gotErr, wantErr := json.Unmarshal(data, &got), json.Unmarshal(data, &want)
		checkSameDecode(t, data, got, want, gotErr, wantErr)
		// Called directly, with no syntax check by encoding/json first, the
		// scanner must still reject every malformed input.
		var direct EdgeList
		directErr := direct.UnmarshalJSON(data)
		checkSameDecode(t, data, direct, want, directErr, wantErr)
		if !json.Valid(data) {
			return
		}
		body := []byte(`{"graph":{"edges":` + string(data) + `}}`)
		var gotReq PartitionRequest
		var wantReq request
		gotErr, wantErr = json.Unmarshal(body, &gotReq), json.Unmarshal(body, &wantReq)
		checkSameDecode(t, body, gotReq.Graph.Edges, wantReq.Graph.Edges, gotErr, wantErr)
	})
}

func checkSameDecode(t *testing.T, data []byte, got EdgeList, want [][]float64, gotErr, wantErr error) {
	t.Helper()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%q: error %q, encoding/json says %q", data, errText(gotErr), errText(wantErr))
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%q: decoded %#v, encoding/json gives %#v", data, got, want)
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) || len(got[i]) != len(want[i]) {
			t.Fatalf("%q: edge %d is %#v, encoding/json gives %#v", data, i, got[i], want[i])
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%q: edge %d value %d is %v, encoding/json gives %v", data, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestEdgeListEdgesDoNotAlias: every edge is a full-slice view of one flat
// array, so growing one edge must reallocate it rather than overwrite its
// neighbour.
func TestEdgeListEdgesDoNotAlias(t *testing.T) {
	var l EdgeList
	if err := json.Unmarshal([]byte(`[[0,1],[2,3,4]]`), &l); err != nil {
		t.Fatal(err)
	}
	l[0] = append(l[0], 9)
	if l[1][0] != 2 || l[1][1] != 3 || l[1][2] != 4 {
		t.Fatalf("append to edge 0 overwrote edge 1: %v", l[1])
	}
}

// TestEdgeListRequestErrors pins the answers to inline edge lists that the
// scanner hands to encoding/json or that decode to unusual values. Every
// text was recorded from the server before EdgeList existed, when
// GraphSpec.Edges was a plain [][]float64.
func TestEdgeListRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ edges, want string }{
		{`[[0,"1"]]`, "bad request body: json: cannot unmarshal string into Go struct field GraphSpec.graph.edges of type float64"},
		{`[[0,1e400]]`, "bad request body: json: cannot unmarshal number 1e400 into Go struct field GraphSpec.graph.edges of type float64"},
		{`[[0,-1E+400]]`, "bad request body: json: cannot unmarshal number -1E+400 into Go struct field GraphSpec.graph.edges of type float64"},
		{`[{"u":0}]`, "bad request body: json: cannot unmarshal object into Go struct field GraphSpec.graph.edges of type []float64"},
		{`[[0,1],]`, "bad request body: invalid character ']' looking for beginning of value"},
		{`[[0 1]]`, "bad request body: invalid character '1' after array element"},
		{`"x"`, "bad request body: json: cannot unmarshal string into Go struct field GraphSpec.graph.edges of type [][]float64"},
		{`{}`, "bad request body: json: cannot unmarshal object into Go struct field GraphSpec.graph.edges of type [][]float64"},
		{`[[[0]]]`, "bad request body: json: cannot unmarshal array into Go struct field GraphSpec.graph.edges of type float64"},
		{`[[0,true]]`, "bad request body: json: cannot unmarshal bool into Go struct field GraphSpec.graph.edges of type float64"},
		{`[[0,01]]`, "bad request body: invalid character '1' after array element"},
		{`[[0,1.]]`, "bad request body: invalid character ']' after decimal point in numeric literal"},
		{`[[0,-]]`, "bad request body: invalid character ']' in numeric literal"},
		{`[[0,+1]]`, "bad request body: invalid character '+' looking for beginning of value"},
		{`[[0,.5]]`, "bad request body: invalid character '.' looking for beginning of value"},
		{`[[0,1],[1,2]`, "bad request body: invalid character '}' after array element"},
		{`[[0,"1"],[0,1e400]]`, "bad request body: json: cannot unmarshal string into Go struct field GraphSpec.graph.edges of type float64"},
		{`[[0,1,null]]`, "graph: edge {0,1} has non-positive weight 0"},
		{`[[0,1],null]`, "graph: edge 1 has 0 entries (want [u,v] or [u,v,w])"},
		{`[[0,1],[]]`, "graph: edge 1 has 0 entries (want [u,v] or [u,v,w])"},
		{`[[0,1,-0]]`, "graph: edge {0,1} has non-positive weight -0"},
		{`[[0,1,-0.0e0]]`, "graph: edge {0,1} has non-positive weight -0"},
		{`[[0,1.5]]`, "graph: edge 0 has non-integer endpoints [0,1.5]"},
		{`[[0,1e-320]]`, "graph: edge 0 has non-integer endpoints [0,1e-320]"},
		{`[[0,1],[1,2,3,4]]`, "graph: edge 1 has 4 entries (want [u,v] or [u,v,w])"},
		{`[[0,12345678901234567]]`, "graph: edge {0,12345678901234568} out of range [0,3)"},
		{`[[0,999999999999999]]`, "graph: edge {0,999999999999999} out of range [0,3)"},
		{`[[0,-1]]`, "graph: edge {0,-1} out of range [0,3)"},
		{`[[0,1e5]]`, "graph: edge {0,100000} out of range [0,3)"},
	} {
		code, pr := post(t, ts, `{"graph":{"n":3,"edges":`+tc.edges+`},"k":2}`)
		if code != http.StatusBadRequest || pr.Error != tc.want {
			t.Errorf("edges %s: %d %q, want 400 %q", tc.edges, code, pr.Error, tc.want)
		}
	}
	// Accepted forms reach the k check: null, empty, whitespace, the
	// largest float64 as a weight.
	for _, edges := range []string{`null`, `[]`, " [ [ 0 , 1 ] ,\t[1,2]\n]", `[[1,2,1.7976931348623157e308]]`} {
		code, pr := post(t, ts, `{"graph":{"n":3,"edges":`+edges+`},"k":5}`)
		if want := "k = 5 exceeds vertex count 3"; code != http.StatusBadRequest || pr.Error != want {
			t.Errorf("edges %q: %d %q, want 400 %q", edges, code, pr.Error, want)
		}
	}
}

// TestHugeVertexCountRejected: an edge list's n is bounded by the body
// size before anything is allocated for it, on both endpoints that take
// one. Unbounded, this 27-byte graph would allocate 16 GB.
func TestHugeVertexCountRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const spec = `{"n":2000000000,"edges":[]}`
	const want = "graph: n = 2000000000 exceeds the limit of 33554432 vertices"
	if code, pr := post(t, ts, `{"graph":`+spec+`,"k":2}`); code != http.StatusBadRequest || pr.Error != want {
		t.Fatalf("partition: %d %q, want 400 %q", code, pr.Error, want)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Fatalf("upload: %d %s, want 400 %q", resp.StatusCode, body, want)
	}
}

// BenchmarkDecodeInline is server admission of RG-10k sent inline, timed
// at the handler's decode entry point: the body read, the request decode
// with its edge list, and the graph build.
func BenchmarkDecodeInline(b *testing.B) {
	var body bytes.Buffer
	fmt.Fprintf(&body, `{"graph":{"n":10000,"edges":[`)
	first := true
	graph.RandomGeometric(10000, 0.02, 1).ForEachEdge(func(u, v int, _ float64) {
		if !first {
			body.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&body, "[%d,%d]", u, v)
	})
	body.WriteString(`]},"k":32,"method":"annealing","seed":1}`)
	const limit = 32 << 20
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &http.Request{Body: io.NopCloser(bytes.NewReader(body.Bytes())), ContentLength: int64(body.Len())}
		if _, _, err := decodePartition(readBody(r, limit), limit); err != nil {
			b.Fatal(err)
		}
	}
}
