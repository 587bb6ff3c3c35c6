package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/graph"
)

// Request bodies are read once, into one buffer, and decoded in one pass
// when they are in their plain form: every key spelled exactly as its JSON
// tag, no key twice, no unknown key, no null, integers as plain literals,
// booleans as true or false, strings of printable ASCII without escapes, and
// nothing but whitespace after the closing brace. An inline graph's edges
// go straight into the graph builder, so no EdgeList is ever built; that
// needs graph.n before graph.edges, integer endpoints, two or three values
// per edge and positive vertex weights. Every other body, and every body
// whose read failed, goes to encoding/json and decodeGraph, which define
// the accepted inputs, the values and the error texts; the scans are held
// to them differentially (FuzzPartitionRequestDecode, FuzzMutateDecode).
// Nothing decoded aliases the body.

// requestBody is a request body read once: its bytes, and the error that
// ended the read early (nil when the read completed).
type requestBody struct {
	data []byte
	err  error
}

// readBody reads the body of r, which http.MaxBytesReader bounds to limit
// bytes. It makes one allocation of Content-Length bytes when that is known
// and within limit, and grows the buffer with io.ReadAll otherwise. It
// keeps no buffer between requests.
func readBody(r *http.Request, limit int64) requestBody {
	if r.ContentLength < 0 || r.ContentLength > limit {
		data, err := io.ReadAll(r.Body)
		return requestBody{data, err}
	}
	data := make([]byte, r.ContentLength)
	for n := 0; n < len(data); {
		m, err := r.Body.Read(data[n:])
		n += m
		if err == io.EOF {
			return requestBody{data: data[:n]}
		}
		if err != nil {
			return requestBody{data[:n], err}
		}
	}
	return requestBody{data: data}
}

// decodeJSON decodes the body's first JSON value into v with encoding/json
// as a stream over the unread request would: the bytes read, then the read
// error, if any. The error surfaces only if the value runs into it.
func (b requestBody) decodeJSON(v any) error {
	var r io.Reader = bytes.NewReader(b.data)
	if b.err != nil {
		r = io.MultiReader(r, errReader{b.err})
	}
	return json.NewDecoder(r).Decode(v)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodePartition decodes a POST /v1/partition body and builds the inline
// graph it carries. g is nil, with no error, when the body names a stored
// graph by id alone, which the server resolves from its store. Every error
// is a 400.
func decodePartition(body requestBody, maxVertices int64) (req PartitionRequest, g *graph.Graph, err error) {
	var gs graphScan
	if body.err == nil {
		var ok bool
		if req, gs, ok = scanPartitionRequest(body.data, maxVertices); ok {
			g, err = gs.inline(maxVertices)
			return req, g, err
		}
	}
	req = PartitionRequest{}
	if err := body.decodeJSON(&req); err != nil {
		return req, nil, badRequestf("bad request body: %v", err)
	}
	gs = graphScan{spec: req.Graph, nEdges: len(req.Graph.Edges)}
	g, err = gs.inline(maxVertices)
	return req, g, err
}

// decodeGraphSpec decodes the JSON body of a graph upload and builds the
// graph. An upload carries content, never an id.
func decodeGraphSpec(body requestBody, maxVertices int64) (*graph.Graph, error) {
	var gs graphScan
	ok := false
	if body.err == nil {
		c := cursor{data: body.data}
		ok = c.graphSpec(&gs, maxVertices) && c.end()
	}
	if !ok {
		var spec GraphSpec
		if err := body.decodeJSON(&spec); err != nil {
			return nil, badRequestf("bad request body: %v", err)
		}
		gs = graphScan{spec: spec, nEdges: len(spec.Edges)}
	}
	if gs.spec.ID != "" {
		return nil, badRequestf("graph: uploads carry content, not an id")
	}
	return buildGraph(gs.spec, gs.nEdges, gs.b, maxVertices)
}

// decodeMutate decodes a POST /v1/graphs/{id}/mutate body. Every error is a
// 400.
func decodeMutate(body requestBody) (mutateRequest, error) {
	if body.err == nil {
		if req, ok := scanMutate(body.data); ok {
			return req, nil
		}
	}
	var req mutateRequest
	if err := body.decodeJSON(&req); err != nil {
		return req, badRequestf("bad request body: %v", err)
	}
	return req, nil
}

// graphScan is a decoded GraphSpec whose edges may already sit in a
// builder: the one-pass scan feeds them into b and counts them in nEdges,
// leaving spec.Edges nil.
type graphScan struct {
	spec   GraphSpec
	b      *graph.Builder
	nEdges int
}

// inline builds the request's inline graph, or returns nil when the spec
// names a stored graph by id alone.
func (gs *graphScan) inline(maxVertices int64) (*graph.Graph, error) {
	if gs.spec.ID != "" && !hasInline(gs.spec, gs.nEdges) {
		return nil, nil
	}
	return buildGraph(gs.spec, gs.nEdges, gs.b, maxVertices)
}

// scanPartitionRequest decodes the plain form of a PartitionRequest in one
// pass, or reports false for any other body.
func scanPartitionRequest(data []byte, maxVertices int64) (req PartitionRequest, gs graphScan, ok bool) {
	c := cursor{data: data}
	var seen fields
	ok = c.object(func(key []byte) bool {
		switch string(key) {
		case "graph":
			return seen.once(0) && c.graphSpec(&gs, maxVertices)
		case "k":
			return seen.once(1) && c.int(&req.K)
		case "method":
			return seen.once(2) && c.text(&req.Method)
		case "objective":
			return seen.once(3) && c.text(&req.Objective)
		case "seed":
			return seen.once(4) && c.int64(&req.Seed)
		case "budget":
			return seen.once(5) && c.text(&req.Budget)
		case "max_steps":
			return seen.once(6) && c.int(&req.MaxSteps)
		case "parallelism":
			return seen.once(7) && c.int(&req.Parallelism)
		case "multilevel":
			return seen.once(8) && c.bool(&req.Multilevel)
		case "memetic_crossover":
			return seen.once(9) && c.bool(&req.MemeticCrossover)
		case "coarsen_to":
			return seen.once(10) && c.int(&req.CoarsenTo)
		case "relayout":
			return seen.once(11) && c.bool(&req.Relayout)
		case "wait":
			req.Wait = new(bool)
			return seen.once(12) && c.bool(req.Wait)
		case "timeout":
			return seen.once(13) && c.text(&req.Timeout)
		case "no_cache":
			return seen.once(14) && c.bool(&req.NoCache)
		case "federate":
			return seen.once(15) && c.bool(&req.Federate)
		case "warm_start":
			if !seen.once(16) {
				return false
			}
			c.skip()
			var scanned bool
			req.WarmStart, c.i, scanned = scanArray(c.data, c.i, scanInt32)
			return scanned
		}
		return false
	})
	req.Graph = gs.spec
	return req, gs, ok && c.end()
}

// graphSpec scans the plain form of a GraphSpec object into gs. The edge
// list goes straight into a builder reserved for it, which needs n first,
// within vertexLimit; any edge addEdge refuses ends the scan, as does a
// vertex weight that is not positive, so buildGraph reports what it would
// for the decoded spec.
func (c *cursor) graphSpec(gs *graphScan, maxVertices int64) bool {
	var seen fields
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "metis":
			return seen.once(0) && c.text(&gs.spec.METIS)
		case "n":
			return seen.once(1) && c.int(&gs.spec.N)
		case "id":
			return seen.once(2) && c.text(&gs.spec.ID)
		case "vertex_weights":
			if !seen.once(3) {
				return false
			}
			c.skip()
			var ok bool
			gs.spec.VertexWeights, c.i, ok = scanArray(c.data, c.i, scanNumber)
			for _, w := range gs.spec.VertexWeights {
				ok = ok && w > 0
			}
			return ok
		case "edges":
			n := gs.spec.N // 0 unless n came first
			if !seen.once(4) || n <= 0 || int64(n) > vertexLimit(maxVertices) {
				return false
			}
			c.skip()
			b := graph.NewBuilder(n)
			// Every edge opens with a bracket, and little after the list does.
			b.Reserve(bytes.Count(c.data[c.i:], []byte{'['}) - 1)
			end, ok := scanEdges(c.data, c.i, func(e []float64) bool {
				if addEdge(b, gs.nEdges, e) != nil {
					return false
				}
				gs.nEdges++
				return true
			})
			gs.b, c.i = b, end
			return ok
		}
		return false
	})
}

// scanMutate decodes the plain form of a mutate body in one pass, or
// reports false for any other body.
func scanMutate(data []byte) (req mutateRequest, ok bool) {
	c := cursor{data: data}
	var seen fields
	ok = c.object(func(key []byte) bool {
		if string(key) != "edits" || !seen.once(0) || !c.next('[') {
			return false
		}
		// A plain edit nests nothing, so every brace left opens one.
		req.Edits = make([]graph.EdgeEdit, 0, bytes.Count(c.data[c.i:], []byte{'{'}))
		if c.next(']') {
			return true
		}
		for {
			var e graph.EdgeEdit
			var got fields
			if !c.object(func(key []byte) bool {
				switch string(key) {
				case "op":
					return got.once(0) && c.op(&e.Op)
				case "u":
					return got.once(1) && c.int(&e.U)
				case "v":
					return got.once(2) && c.int(&e.V)
				case "w":
					return got.once(3) && c.number(&e.W)
				}
				return false
			}) {
				return false
			}
			req.Edits = append(req.Edits, e)
			if c.next(']') {
				return true
			}
			if !c.next(',') {
				return false
			}
		}
	})
	return req, ok && c.end()
}

// fields records which keys of one object the scan has seen.
type fields uint32

// once marks field i seen and reports whether it was new.
func (f *fields) once(i uint) bool {
	if *f&(1<<i) != 0 {
		return false
	}
	*f |= 1 << i
	return true
}

// cursor walks a body for the one-pass scans. Every method reports false
// for input outside the plain form; the caller then gives up on the scan.
type cursor struct {
	data []byte
	i    int
}

func (c *cursor) skip() { c.i = skipSpace(c.data, c.i) }

// next consumes the next non-space byte if it is b.
func (c *cursor) next(b byte) bool {
	c.skip()
	if c.i < len(c.data) && c.data[c.i] == b {
		c.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (c *cursor) end() bool {
	c.skip()
	return c.i == len(c.data)
}

// object scans a JSON object, calling field with each key and the cursor
// at its value; field scans the value and reports whether it could.
func (c *cursor) object(field func(key []byte) bool) bool {
	if !c.next('{') {
		return false
	}
	if c.next('}') {
		return true
	}
	for {
		key, ok := c.str()
		if !ok || !c.next(':') || !field(key) {
			return false
		}
		if c.next('}') {
			return true
		}
		if !c.next(',') {
			return false
		}
	}
}

// str scans a string of printable ASCII without escapes. The bytes it
// returns are the body's own, so a caller keeping them copies them.
func (c *cursor) str() ([]byte, bool) {
	if !c.next('"') {
		return nil, false
	}
	for j := c.i; j < len(c.data); j++ {
		switch b := c.data[j]; {
		case b == '"':
			s := c.data[c.i:j]
			c.i = j + 1
			return s, true
		case b < 0x20 || b >= 0x80 || b == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (c *cursor) text(dst *string) bool {
	s, ok := c.str()
	*dst = string(s)
	return ok
}

// op is text for an edit op, sharing the constant for the three valid ones.
func (c *cursor) op(dst *string) bool {
	s, ok := c.str()
	switch string(s) {
	case "add":
		*dst = "add"
	case "remove":
		*dst = "remove"
	case "reweight":
		*dst = "reweight"
	default:
		*dst = string(s)
	}
	return ok
}

func (c *cursor) int64(dst *int64) bool {
	c.skip()
	x, end, ok := scanInt(c.data, c.i)
	*dst, c.i = x, end
	return ok
}

func (c *cursor) int(dst *int) bool {
	var x int64
	if !c.int64(&x) || int64(int(x)) != x {
		return false
	}
	*dst = int(x)
	return true
}

func (c *cursor) number(dst *float64) bool {
	c.skip()
	x, end, ok := scanNumber(c.data, c.i)
	*dst, c.i = x, end
	return ok
}

func (c *cursor) bool(dst *bool) bool {
	c.skip()
	rest := c.data[c.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*dst, c.i = true, c.i+4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*dst, c.i = false, c.i+5
	default:
		return false
	}
	return true
}
