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
//
// The result is spliced from g's CSR arrays, not rebuilt: the edits reduce
// to net changes sorted by (u, v), untouched edges and adjacency rows are
// block-copied with their edge ids renumbered, and only the rows of edited
// edges are merged arc by arc. A batch of E edits costs O(n + m) copying
// plus O(E log E); vertex weights are shared with g. The result is
// bit-identical to adding the edited edge set to a Builder — same edge ids,
// adjacency order, weighted degrees and totals, hence the same Digest.
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

	// Net changes in (u, v) order, each placed in g's (u, v)-ordered edge
	// list. An edge added and removed again within the batch nets out.
	changes := make([]edgeChange, 0, len(edited))
	for k, w := range edited {
		at, old := g.edgeIndex(k.u, k.v)
		if old || w > 0 {
			changes = append(changes, edgeChange{u: k.u, v: k.v, w: w, at: int32(at), old: old})
		}
	}
	slices.SortFunc(changes, func(a, b edgeChange) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	return g.splice(changes), nil
}

// edgeChange is the net edit of one edge {u, v}, u < v. w is its new
// weight, 0 when it is removed. at is its index in the source graph's
// (u, v)-ordered edge list, or for an added edge the index of the first
// edge ordered after it; old says the edge is in the source. splice sets id
// to the edge's id in the result, -1 when it is removed.
type edgeChange struct {
	u, v int32
	w    float64
	at   int32
	id   int32
	old  bool
}

// edgeIndex binary-searches the (u, v)-ordered edge list for {u, v},
// u < v, returning the index of the first edge not ordered before it and
// whether that edge is {u, v}.
func (g *Graph) edgeIndex(u, v int32) (int, bool) {
	lo, hi := 0, len(g.eu)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if g.eu[h] < u || (g.eu[h] == u && g.ev[h] < v) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(g.eu) && g.eu[lo] == u && g.ev[lo] == v
}

// splice derives the graph with changes (net, sorted by (u, v)) applied,
// writing every array exactly as Build would for the edited edge set: edge
// ids in (u, v) order, rows in ascending neighbor order, weighted degrees
// summed in adjacency order, totals summed in array order.
func (g *Graph) splice(changes []edgeChange) *Graph {
	n, m := g.NumVertices(), g.NumEdges()
	r := &Graph{xadj: make([]int32, n+1), vwgt: g.vwgt, wdeg: make([]float64, n)}
	if r.vwgt == nil {
		r.vwgt = []float64{} // an empty aliased section decodes as nil; Build's is empty
	}
	newM := m
	for _, c := range changes {
		d := int32(0)
		switch {
		case !c.old:
			d = 1
		case c.w == 0:
			d = -1
		}
		newM += int(d)
		r.xadj[c.u+1] += d
		r.xadj[c.v+1] += d
	}
	for v := 0; v < n; v++ {
		r.xadj[v+1] += r.xadj[v] + g.xadj[v+1] - g.xadj[v]
	}
	r.adjncy = make([]int32, 2*newM)
	r.adjwgt = make([]float64, 2*newM)
	r.arcEID = make([]int32, 2*newM)
	r.eu = make([]int32, newM)
	r.ev = make([]int32, newM)
	r.ewgt = make([]float64, newM)

	// Edge list: runs of unchanged edges are copied between the changes,
	// and remap records where each unchanged edge lands.
	remap := make([]int32, m)
	ne, next := 0, 0 // next new edge id; first source edge not yet placed
	keep := func(to int) {
		copy(r.eu[ne:], g.eu[next:to])
		copy(r.ev[ne:], g.ev[next:to])
		copy(r.ewgt[ne:], g.ewgt[next:to])
		for e := next; e < to; e++ {
			remap[e] = int32(ne + e - next)
		}
		ne += to - next
		next = to
	}
	for i := range changes {
		c := &changes[i]
		keep(int(c.at))
		if c.old {
			next++
		}
		c.id = -1
		if c.w > 0 {
			c.id = int32(ne)
			r.eu[ne], r.ev[ne], r.ewgt[ne] = c.u, c.v, c.w
			ne++
		}
	}
	keep(m)

	// Adjacency: each change touches one arc in each endpoint's row. Runs
	// of untouched rows are copied whole; a touched row merges its sorted
	// source arcs with its sorted arc changes.
	type arcChange struct{ row, nbr, c int32 }
	arcs := make([]arcChange, 0, 2*len(changes))
	for i, c := range changes {
		arcs = append(arcs, arcChange{c.u, c.v, int32(i)}, arcChange{c.v, c.u, int32(i)})
	}
	slices.SortFunc(arcs, func(a, b arcChange) int {
		if c := cmp.Compare(a.row, b.row); c != 0 {
			return c
		}
		return cmp.Compare(a.nbr, b.nbr)
	})
	row := 0 // first row not yet written
	keepArcs := func(lo, hi, out int32) {
		copy(r.adjncy[out:], g.adjncy[lo:hi])
		copy(r.adjwgt[out:], g.adjwgt[lo:hi])
		for i, e := range g.arcEID[lo:hi] {
			r.arcEID[out+int32(i)] = remap[e]
		}
	}
	keepRows := func(to int) {
		keepArcs(g.xadj[row], g.xadj[to], r.xadj[row])
		copy(r.wdeg[row:to], g.wdeg[row:to])
		row = to
	}
	for i := 0; i < len(arcs); {
		x := arcs[i].row
		keepRows(int(x))
		src, end, out := g.xadj[x], g.xadj[x+1], r.xadj[x]
		for ; i < len(arcs) && arcs[i].row == x; i++ {
			a := arcs[i]
			c := changes[a.c]
			s := src
			for s < end && g.adjncy[s] < a.nbr {
				s++
			}
			keepArcs(src, s, out)
			out += s - src
			src = s
			if c.old {
				src++ // the edited edge's source arc
			}
			if c.id >= 0 {
				r.adjncy[out], r.adjwgt[out], r.arcEID[out] = a.nbr, c.w, c.id
				out++
			}
		}
		keepArcs(src, end, out)
		d := 0.0
		for _, w := range r.adjwgt[r.xadj[x]:r.xadj[x+1]] {
			d += w
		}
		r.wdeg[x] = d
		row = int(x) + 1
	}
	keepRows(n)

	// Self-loops and totals exactly as Build derives them from a Builder
	// fed g's positive loop weights.
	for v, w := range g.lwgt {
		if w > 0 {
			if r.lwgt == nil {
				r.lwgt = make([]float64, n)
			}
			r.lwgt[v] = w
		}
	}
	r.unitEW, r.unitVW = true, true
	for _, w := range r.ewgt {
		r.totW += w
		r.unitEW = r.unitEW && w == 1
	}
	for _, w := range r.vwgt {
		r.totVW += w
		r.unitVW = r.unitVW && w == 1
	}
	for _, w := range r.lwgt {
		r.totLW += w
	}
	return r
}
