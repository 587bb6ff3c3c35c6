package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// EdgeEdit is one edit in a graph mutation: add a new edge, remove an
// existing one, or change an existing edge's weight. Endpoints are 0-based
// and unordered ({u,v} and {v,u} name the same edge).
type EdgeEdit struct {
	// Op is "add", "remove" or "reweight".
	Op string `json:"op"`
	// U, V are the edge's endpoints.
	U int `json:"u"`
	V int `json:"v"`
	// W is the edge weight for add and reweight (defaulting to 1 when
	// omitted); ignored for remove.
	W float64 `json:"w,omitempty"`
}

// WithEdits returns a new graph derived from g by applying edits. The edits
// are strict — adding an edge that already exists, or removing/reweighting
// one that doesn't, is an error — so a drifting workload notices when its
// view of the graph and the stored graph disagree, instead of silently
// diverging. Vertex weights, vertex count and self-loop weights carry over
// unchanged; g itself is not modified.
//
// Duplicate edits to the same edge apply in order against the running state
// (remove then add is a legal replace; add then add is an error).
func (g *Graph) WithEdits(edits []EdgeEdit) (*Graph, error) {
	n := g.NumVertices()
	type key struct{ u, v int32 }
	norm := func(u, v int) (key, error) {
		if u == v {
			return key{}, fmt.Errorf("graph: edit names a self-loop at vertex %d", u)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return key{}, fmt.Errorf("graph: edit edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		if u > v {
			u, v = v, u
		}
		return key{int32(u), int32(v)}, nil
	}
	// Running weight per edited edge; untouched edges never enter the map.
	edited := make(map[key]float64, len(edits))
	weightOf := func(k key) (float64, bool) {
		if w, ok := edited[k]; ok {
			return w, w > 0
		}
		w, ok := g.EdgeWeight(int(k.u), int(k.v))
		return w, ok
	}
	for i, e := range edits {
		k, err := norm(e.U, e.V)
		if err != nil {
			return nil, fmt.Errorf("%v (edit %d)", err, i)
		}
		w := e.W
		if w == 0 && e.Op != "remove" {
			w = 1
		}
		_, exists := weightOf(k)
		switch e.Op {
		case "add":
			if exists {
				return nil, fmt.Errorf("graph: edit %d adds edge {%d,%d} which already exists (use reweight)", i, k.u, k.v)
			}
		case "remove":
			if !exists {
				return nil, fmt.Errorf("graph: edit %d removes edge {%d,%d} which does not exist", i, k.u, k.v)
			}
			w = 0 // tombstone
		case "reweight":
			if !exists {
				return nil, fmt.Errorf("graph: edit %d reweights edge {%d,%d} which does not exist", i, k.u, k.v)
			}
		default:
			return nil, fmt.Errorf("graph: edit %d has unknown op %q (want add, remove or reweight)", i, e.Op)
		}
		if e.Op != "remove" && (!(w > 0) || math.IsInf(w, 1)) {
			return nil, fmt.Errorf("graph: edit %d sets non-positive or non-finite weight %g", i, e.W)
		}
		edited[k] = w
	}

	// Freshly added edges, sorted so they merge into the (u, v)-ordered
	// ForEachEdge stream below and Build finds its input already in order.
	var added []key
	for k, w := range edited {
		if _, ok := g.EdgeWeight(int(k.u), int(k.v)); w > 0 && !ok {
			added = append(added, k)
		}
	}
	slices.SortFunc(added, func(a, b key) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})

	b := NewBuilder(n)
	b.Reserve(g.NumEdges() + len(added))
	for v := 0; v < n; v++ {
		if w := g.VertexWeight(v); w != 1 {
			b.SetVertexWeight(v, w)
		}
		if w := g.VertexLoop(v); w > 0 {
			b.AddSelfLoop(v, w)
		}
	}
	g.ForEachEdge(func(u, v int, w float64) {
		for len(added) > 0 && (int(added[0].u) < u || (int(added[0].u) == u && int(added[0].v) < v)) {
			b.AddEdge(int(added[0].u), int(added[0].v), edited[added[0]])
			added = added[1:]
		}
		if ew, ok := edited[key{int32(u), int32(v)}]; ok {
			if ew > 0 {
				b.AddEdge(u, v, ew)
			}
			return
		}
		b.AddEdge(u, v, w)
	})
	for _, k := range added {
		b.AddEdge(int(k.u), int(k.v), edited[k])
	}
	return b.Build()
}
