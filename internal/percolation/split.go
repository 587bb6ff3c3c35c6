package percolation

import (
	"math"

	"repro/internal/graph"
)

// front is one queued liquid front: vertex v reached by liquid c with the
// log-domain bond of the path that got there.
type front struct {
	v    int32
	c    int32
	bond float64
}

// frontHeap is a max-heap of fronts by bond. push and pop leave the heap
// exactly as container/heap's Push and Pop would (sift up after append;
// swap root and last, sift down over the rest), so equal-bond fronts leave
// in the same order the boxed container/heap queue released them. The
// sifts move a hole instead of swapping, which writes each displaced front
// once but compares and places every front identically.
type frontHeap []front

func (h *frontHeap) push(f front) {
	q := append(*h, f)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(f.bond > q[i].bond) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = f
	*h = q
}

func (h *frontHeap) pop() front {
	q := *h
	n := len(q) - 1
	top, f := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].bond > q[j].bond {
			j = j2 // right child
		}
		if !(q[j].bond > f.bond) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = f
	*h = q[:n]
	return top
}

// Splitter cuts subsets of one parent graph's vertices in two by free
// percolation, the fission primitive of fusion-fission (section 4.4). It
// percolates over the parent CSR through a member -> local-index mask
// instead of building the induced subgraph, and owns every buffer it needs,
// so a split allocates nothing. Split reproduces
//
//	sub := graph.Induced(g, members)
//	seeds := graph.FarthestPointSeeds(sub.G, start, 2)
//	side := Bisect(sub.G, seeds[0], seeds[1])
//
// bit for bit. When the start has no neighbor inside the subset, so that
// FarthestPointSeeds finds a single seed, the members outside member 0's
// connected component go to side 1 (the upper half of the members, should
// the subset be connected after all). A Splitter is not safe for
// concurrent use.
type Splitter struct {
	g     *graph.Graph
	off   []int32   // off[v]: start of v's arcs in logW
	logW  []float64 // math.Log of every arc weight, in adjacency order
	local []int32   // parent vertex -> member index; -1 outside the subset

	members []int32
	queue   []int32
	level   []int32
	bondA   []float64
	bondB   []float64
	done    []bool
	side    []int32
	pq      frontHeap
}

// NewSplitter prepares a splitter for subsets of g's vertices.
func NewSplitter(g *graph.Graph) *Splitter {
	n := g.NumVertices()
	s := &Splitter{
		g:     g,
		off:   make([]int32, n+1),
		local: make([]int32, n),
		queue: make([]int32, 0, n),
		level: make([]int32, n),
		bondA: make([]float64, n),
		bondB: make([]float64, n),
		done:  make([]bool, n),
		side:  make([]int32, n),
	}
	for v := 0; v < n; v++ {
		s.off[v+1] = s.off[v] + int32(g.Degree(v))
		s.local[v] = -1
	}
	s.logW = make([]float64, s.off[n])
	for v := 0; v < n; v++ {
		for i, w := range g.Weights(v) {
			s.logW[int(s.off[v])+i] = math.Log(w)
		}
	}
	return s
}

// Split bisects the subgraph induced by members, which must be distinct
// parent vertices in ascending order, from the farthest pair found by
// breadth-first search from members[start]. It returns a 0/1 side per
// member; the slice is reused by the next call.
func (s *Splitter) Split(members []int32, start int) []int32 {
	s.members = members
	for i, v := range members {
		s.local[v] = int32(i)
	}
	side := s.split(int32(start))
	for _, v := range members {
		s.local[v] = -1
	}
	s.members = nil
	return side
}

func (s *Splitter) split(start int32) []int32 {
	n := len(s.members)
	// Farthest-point seed: the lowest member index at the largest hop
	// distance from the start.
	s.bfs(start)
	far, farD := int32(-1), int32(-1)
	for i, d := range s.level[:n] {
		if d > farD {
			far, farD = int32(i), d
		}
	}
	if farD > 0 {
		return s.bisect(start, far, s.inducedDamping())
	}
	// The start has no neighbor in the subset: split off everything outside
	// the component of member 0, or halve the subset if it is connected.
	side := s.side[:n]
	s.bfs(0)
	split := false
	for i, d := range s.level[:n] {
		side[i] = 0
		if d < 0 {
			side[i] = 1
			split = true
		}
	}
	if !split {
		for i := n / 2; i < n; i++ {
			side[i] = 1
		}
	}
	return side
}

// bfs writes each member's hop distance from member src into level (-1 for
// unreachable members), walking only arcs inside the subset.
func (s *Splitter) bfs(src int32) {
	n := len(s.members)
	level := s.level[:n]
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	q := append(s.queue[:0], src)
	for h := 0; h < len(q); h++ {
		i := q[h]
		for _, u := range s.g.Neighbors(int(s.members[i])) {
			if lu := s.local[u]; lu >= 0 && level[lu] < 0 {
				level[lu] = level[i] + 1
				q = append(q, lu)
			}
		}
	}
	s.queue = q[:0]
}

// inducedDamping is logDamping of the induced subgraph: its edge weights are
// summed in (u, v) order of member indices, the order graph.Builder sums an
// induced subgraph's total weight, so the damping is bit-identical.
func (s *Splitter) inducedDamping() float64 {
	m, total := 0, 0.0
	for i, v := range s.members {
		wts := s.g.Weights(int(v))
		for a, u := range s.g.Neighbors(int(v)) {
			if s.local[u] > int32(i) {
				m++
				total += wts[a]
			}
		}
	}
	if m == 0 {
		return math.Log(2)
	}
	return math.Log(2 * (total / float64(m)))
}

// bisect grows two free liquids from member indices a and b and gives each
// member to the stronger bond (ties to a's side).
func (s *Splitter) bisect(a, b int32, logHalfMean float64) []int32 {
	n := len(s.members)
	side := s.side[:n]
	clear(side)
	if a == b || n < 2 {
		return side
	}
	s.propagate(a, logHalfMean, s.bondA[:n])
	s.propagate(b, logHalfMean, s.bondB[:n])
	for i := range side {
		if s.bondB[i] > s.bondA[i] {
			side[i] = 1
		}
	}
	side[a], side[b] = 0, 1
	return side
}

// propagate computes the free log-domain bonds from member seed to every
// member by strongest-front expansion; unreached members get -Inf. It stops
// as soon as every member is settled: each front still queued then is
// stale, so popping it would change nothing.
func (s *Splitter) propagate(seed int32, logHalfMean float64, bond []float64) {
	done := s.done[:len(bond)]
	for i := range bond {
		bond[i] = math.Inf(-1)
		done[i] = false
	}
	pq := s.pq[:0]
	pq.push(front{v: seed})
	for settled := 0; len(pq) > 0 && settled < len(bond); {
		it := pq.pop()
		if done[it.v] {
			continue // a stronger front already claimed this member
		}
		done[it.v] = true
		bond[it.v] = it.bond
		settled++
		v := s.members[it.v]
		logW := s.logW[s.off[v]:s.off[v+1]]
		for a, u := range s.g.Neighbors(int(v)) {
			if lu := s.local[u]; lu >= 0 && !done[lu] {
				pq.push(front{v: lu, bond: it.bond + logW[a] - logHalfMean})
			}
		}
	}
	s.pq = pq
}

// Bisect splits the vertices of g into two sides grown from seedA and seedB
// with a single free percolation sweep; it is the cutting primitive the
// fusion-fission method uses to break an atom (section 4.4). Unreachable
// vertices stay on side 0. The result is a 0/1 side per vertex.
func Bisect(g *graph.Graph, seedA, seedB int) []int32 {
	n := g.NumVertices()
	if seedA == seedB || n < 2 {
		return make([]int32, n)
	}
	s := NewSplitter(g)
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
		s.local[v] = int32(v)
	}
	s.members = all
	return s.bisect(int32(seedA), int32(seedB), logDamping(g))
}
