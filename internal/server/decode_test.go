package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// fuzzVertexLimit bounds n in the decoder fuzz targets, so that a mutated n
// allocates little; "n over the limit" seeds exceed it.
const fuzzVertexLimit = 1 << 10

// referencePartition is the request decode the one-pass scan must equal:
// encoding/json over the body, then the inline graph built by decodeGraph,
// or none when the body names a stored graph by id alone.
func referencePartition(data []byte, maxVertices int64) (PartitionRequest, *graph.Graph, error) {
	var req PartitionRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return req, nil, badRequestf("bad request body: %v", err)
	}
	spec := req.Graph
	if spec.ID != "" && spec.METIS == "" && spec.N == 0 && len(spec.Edges) == 0 && len(spec.VertexWeights) == 0 {
		return req, nil, nil
	}
	g, err := decodeGraph(spec, maxVertices)
	return req, g, err
}

// FuzzPartitionRequestDecode: for any body, decodePartition must answer
// what referencePartition answers — the same error text and status, the
// same request fields, and a graph equal in every field and in digest.
// graph.edges is left out of the field comparison: a scanned body feeds its
// edges straight into the builder and keeps no EdgeList, and the graph
// comparison covers them. The committed corpus (testdata/fuzz/...) holds
// the named bodies: the plain form in perfbench's shape, and every reason a
// body leaves it.
func FuzzPartitionRequestDecode(f *testing.F) {
	for _, s := range []string{
		`{"graph":{"n":3,"edges":[[0,1],[1,2,2.5]]},"k":2}`,
		`{"graph":{"id":"abc"},"k":2,"warm_start":[0,1,1]}`,
		`{"graph":{"metis":"2 1\n2\n1\n"},"k":2,"wait":false}`,
		`{"graph":{"n":2,"edges":[[0,1]],"vertex_weights":[1,2]},"k":2}`,
		`{}`, ``, `null`, `{"k":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, g, err := decodePartition(requestBody{data: data}, fuzzVertexLimit)
		wantReq, wantG, wantErr := referencePartition(data, fuzzVertexLimit)
		if errText(err) != errText(wantErr) {
			t.Fatalf("%q: error %q, reference says %q", data, errText(err), errText(wantErr))
		}
		if err != nil {
			if requestStatus(err) != requestStatus(wantErr) {
				t.Fatalf("%q: status %d, reference says %d", data, requestStatus(err), requestStatus(wantErr))
			}
			return
		}
		req.Graph.Edges, wantReq.Graph.Edges = nil, nil
		if !reflect.DeepEqual(req, wantReq) {
			t.Fatalf("%q: decoded %+v, reference gives %+v", data, req, wantReq)
		}
		if (g == nil) != (wantG == nil) || !reflect.DeepEqual(g, wantG) {
			t.Fatalf("%q: built %+v, reference builds %+v", data, g, wantG)
		}
		if g != nil && graph.Digest(g) != graph.Digest(wantG) {
			t.Fatalf("%q: digest %s, reference %s", data, graph.Digest(g), graph.Digest(wantG))
		}
	})
}

// FuzzMutateDecode: for any body, decodeMutate must answer what
// encoding/json answers for a mutateRequest — the same error text, nil
// versus empty edits, and every edit field, weights bit for bit.
func FuzzMutateDecode(f *testing.F) {
	for _, s := range []string{
		`{"edits":[{"op":"remove","u":1,"v":2},{"op":"add","u":3,"v":4,"w":2.5}]}`,
		" { \"edits\" : [ { \"op\" : \"reweight\" , \"u\" : 0 , \"v\" : 1 , \"w\" : -0 } ] } ",
		`{"edits":[]}`, `{"edits":[{}]}`, `{}`, `{"edits":null}`, `{"Edits":[]}`,
		`{"edits":[{"op":"add","u":1,"v":2,"x":0}]}`, `{"edits":[{"op":"add","op":"remove"}]}`,
		`{"edits":[],"edits":[{"u":1}]}`, `{"edits":[{"u":1.0}]}`, `{"edits":[{"u":1e2}]}`,
		`{"edits":[{"w":1e400}]}`, `{"edits":[{"op":"add"}]}`, `{"edits":[{"op":"é"}]}`,
		`{"edits":[{"u":123456789012345678901}]}`, `{"edits":[]}x`, `{"edits":[{"u":01}]}`,
		`{"edits":[{"op":1}]}`, `[]`, ``, `{"edits":[{"op":"add"},]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeMutate(requestBody{data: data})
		var want mutateRequest
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		if wantErr != nil {
			wantErr = badRequestf("bad request body: %v", wantErr)
		}
		if errText(err) != errText(wantErr) {
			t.Fatalf("%q: error %q, encoding/json says %q", data, errText(err), errText(wantErr))
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %+v, encoding/json gives %+v", data, got, want)
		}
		for i := range want.Edits {
			if math.Float64bits(got.Edits[i].W) != math.Float64bits(want.Edits[i].W) {
				t.Fatalf("%q: edit %d weight %v, encoding/json gives %v", data, i, got.Edits[i].W, want.Edits[i].W)
			}
		}
	})
}

// TestDecodedRequestDoesNotAliasBody: a decoded request keeps no view of
// the body it came from (the result cache would pin every body), so
// overwriting the body after the decode changes nothing. The bodies are in
// the plain form, which the test confirms: only the one-pass scan leaves
// graph.edges nil.
func TestDecodedRequestDoesNotAliasBody(t *testing.T) {
	for _, body := range []string{
		`{"k":2,"method":"annealing","objective":"mcut","seed":7,"budget":"250ms","max_steps":40,"timeout":"3s",` +
			`"graph":{"n":4,"edges":[[0,1],[1,2,2.5],[2,3]],"vertex_weights":[1,2,3,4]},"warm_start":[0,0,1,1]}`,
		`{"k":2,"method":"fusion-fission","graph":{"n":2,"edges":[]},"no_cache":true,"wait":false}`,
		`{"k":2,"graph":{"id":"0123abcd"},"warm_start":[1,0]}`,
	} {
		want, wantG, err := decodePartition(requestBody{data: []byte(body)}, fuzzVertexLimit)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		data := []byte(body)
		got, g, err := decodePartition(requestBody{data: data}, fuzzVertexLimit)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got.Graph.Edges != nil {
			t.Fatalf("%s: not decoded by the one-pass scan", body)
		}
		for i := range data {
			data[i] = 'z'
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(g, wantG) {
			t.Fatalf("%s: overwriting the body changed the decoded request to %+v", body, got)
		}
	}
	const edits = `{"edits":[{"op":"remove","u":1,"v":2},{"op":"add","u":3,"v":4,"w":2.5},{"op":"other","u":0,"v":1}]}`
	want, err := decodeMutate(requestBody{data: []byte(edits)})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(edits)
	got, err := decodeMutate(requestBody{data: data})
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'z'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overwriting the body changed the decoded edits to %+v", got)
	}
}

// BenchmarkDecodeMutate is the mutate half of a churn operation's decode:
// 600 edits, half removals and half additions, as json.Marshal writes them.
func BenchmarkDecodeMutate(b *testing.B) {
	edits := make([]graph.EdgeEdit, 0, 600)
	for i := 0; i < 300; i++ {
		edits = append(edits, graph.EdgeEdit{Op: "remove", U: i * 31 % 10000, V: i * 97 % 10000})
	}
	for i := 0; i < 300; i++ {
		edits = append(edits, graph.EdgeEdit{Op: "add", U: i * 53 % 10000, V: i * 89 % 10000})
	}
	body, err := json.Marshal(mutateRequest{Edits: edits})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
		if _, err := decodeMutate(readBody(r, 32<<20)); err != nil {
			b.Fatal(err)
		}
	}
}
