package graph

import (
	"fmt"
	"sort"
)

// Relabel returns a graph isomorphic to g with vertex v renumbered to
// perm[v]. Edge weights, vertex weights and self-loops ride along, so every
// partition statistic of an assignment maps through the permutation
// unchanged; the unit-weight fast-path flags carry over. perm must be a
// bijection on the vertex ids (order.IsPermutation).
//
// The permuted CSR is built directly from g in O(n + m + Σ d log d): each
// adjacency is copied through perm and sorted into ascending neighbor order,
// and edge ids are assigned in (u, v)-lexicographic order. The result is
// bit-identical to adding g's edges, relabeled, to a Builder — and ascending
// neighbor order is exactly the invariant the locality orderings in
// internal/order are chosen to exploit: after relabeling with
// order.Locality, ascending neighbor ids are also cache-adjacent ids.
func Relabel(g *Graph, perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: relabel permutation has %d entries for %d vertices", len(perm), n)
	}
	// Validate the bijection up front: a duplicated target would otherwise
	// silently merge two distinct vertices' edges into one adjacency. fill
	// marks the targets seen here, and later holds the reverse-arc cursors.
	fill := make([]int32, n)
	for v, p := range perm {
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("graph: relabel maps vertex %d to out-of-range id %d", v, p)
		}
		if fill[p] != 0 {
			return nil, fmt.Errorf("graph: relabel maps two vertices to id %d", p)
		}
		fill[p] = 1
	}
	m := g.NumEdges()
	r := &Graph{
		xadj:   make([]int32, n+1),
		adjncy: make([]int32, 2*m),
		adjwgt: make([]float64, 2*m),
		arcEID: make([]int32, 2*m),
		eu:     make([]int32, m),
		ev:     make([]int32, m),
		ewgt:   make([]float64, m),
		vwgt:   make([]float64, n),
		wdeg:   make([]float64, n),
		unitEW: g.unitEW,
		unitVW: g.unitVW,
	}
	if g.lwgt != nil {
		r.lwgt = make([]float64, n)
	}
	for v, p := range perm {
		r.xadj[p+1] = g.xadj[v+1] - g.xadj[v]
		r.vwgt[p] = g.vwgt[v]
		if r.lwgt != nil {
			r.lwgt[p] = g.lwgt[v]
		}
	}
	for p := 0; p < n; p++ {
		r.xadj[p+1] += r.xadj[p]
	}
	for v, p := range perm {
		lo, hi := r.xadj[p], r.xadj[p+1]
		nbrs, wts := r.adjncy[lo:hi], r.adjwgt[lo:hi]
		for i, x := range g.Neighbors(v) {
			nbrs[i] = perm[x]
		}
		copy(wts, g.Weights(v))
		sortArcs(nbrs, wts)
	}
	// Edge ids in (u, v) order: u's arcs to larger neighbors open edges in
	// ascending v, and each reverse arc lands at v's cursor, which walks v's
	// smaller-neighbor prefix as edges (·, v) arrive in ascending u.
	copy(fill, r.xadj[:n])
	eid := int32(0)
	for u := 0; u < n; u++ {
		d := 0.0
		for a := r.xadj[u]; a < r.xadj[u+1]; a++ {
			v, w := r.adjncy[a], r.adjwgt[a]
			d += w
			if v < int32(u) {
				continue
			}
			r.eu[eid], r.ev[eid], r.ewgt[eid] = int32(u), v, w
			r.arcEID[a] = eid
			r.arcEID[fill[v]] = eid
			fill[v]++
			eid++
			r.totW += w
		}
		r.wdeg[u] = d
	}
	for _, w := range r.vwgt {
		r.totVW += w
	}
	for _, w := range r.lwgt {
		r.totLW += w
	}
	return r, nil
}

// sortArcs sorts one adjacency by neighbor id, carrying the weights along.
// Neighbors are distinct, so stability is moot.
func sortArcs(nbrs []int32, wts []float64) {
	if len(nbrs) > smallSort {
		sort.Sort(arcs{nbrs, wts})
		return
	}
	for i := 1; i < len(nbrs); i++ {
		x, w := nbrs[i], wts[i]
		j := i
		for ; j > 0 && nbrs[j-1] > x; j-- {
			nbrs[j], wts[j] = nbrs[j-1], wts[j-1]
		}
		nbrs[j], wts[j] = x, w
	}
}

type arcs struct {
	nbrs []int32
	wts  []float64
}

func (a arcs) Len() int           { return len(a.nbrs) }
func (a arcs) Less(i, j int) bool { return a.nbrs[i] < a.nbrs[j] }
func (a arcs) Swap(i, j int) {
	a.nbrs[i], a.nbrs[j] = a.nbrs[j], a.nbrs[i]
	a.wts[i], a.wts[j] = a.wts[j], a.wts[i]
}
