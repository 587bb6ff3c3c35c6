// Package partition maintains k-way partition state with O(deg) incremental
// updates of the per-part statistics every objective in the paper needs:
//
//	cut(A, V-A)  — total weight of edges with exactly one endpoint in A
//	W(A)         — paper's internal weight: sum over ordered pairs (u,v) in
//	               A x A of w(u,v), i.e. twice the unordered internal weight
//	|A|, vw(A)   — vertex count and vertex weight of A
//
// Parts are slots in [0, Capacity); slots may be empty, which is what lets
// the fusion-fission metaheuristic vary the number of "atoms" during the
// search without reallocating. NumParts reports the non-empty count.
//
// Vertex self-loop weights (graph.Graph.VertexLoop — the internal weight a
// coarsening contraction folded into a coarse vertex) count toward the
// internal weight of the part holding the vertex, so W(A), Ncut and Mcut of
// a coarse partition agree exactly with those of the fine partition it
// projects to. Loops never contribute to any cut.
package partition

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// Unassigned is the part id of a vertex that has not been placed yet.
const Unassigned = -1

// P is a mutable k-way partition of a fixed graph.
type P struct {
	g        *graph.Graph
	part     []int32
	size     []int32   // vertices per part
	vw       []float64 // vertex weight per part
	internal []float64 // unordered internal edge weight per part (W(A)/2)
	cut      []float64 // cut(A, V-A) per part
	assigned int
	nonEmpty int
	crossing float64 // total crossing edge weight, each edge counted once

	// part16 mirrors part with int16 entries whenever the capacity fits
	// (part ids < 32768 — always, in practice). The mirror is half the
	// footprint of part, so the random per-neighbor assignment loads of the
	// score.moveConns hot loop stay L1-resident on graphs twice as large;
	// maintenance is a single extra store per mutation.
	part16 []int16

	// Argmin support for MinInternalPart, armed by its first call
	// (minTrack): callers that never ask for the argmin — refinement
	// sweeps, bulk construction — pay one predicted branch per mutation
	// and nothing else. minKey mirrors each non-empty part's internal
	// weight through the monotone float-to-uint64 map of minKeyOf (empty
	// slots hold the all-ones sentinel), so each mutation costs one
	// unconditional store and the argmin query is a short compare-and-cmov
	// integer reduction over one contiguous array instead of the
	// NonEmptyParts allocate-and-scan (with a method call per part) the
	// old hot path paid per proposal. Only a bulk CopyFrom sets minDirty
	// for a lazy refill.
	minTrack bool
	minDirty bool
	minKey   []uint64
	// minNarrow selects the composite-key scan: on unit-edge-weight,
	// loop-free graphs every part's internal weight is an exact small
	// integer, so (weight << 32 | part id) packs the full lexicographic
	// (weight, lowest-id) order into one uint64 — the plain min reduction
	// over minKeyC IS the argmin, with no index-recovery pass. Weighted or
	// loop-carrying graphs keep the bit-mapped float keys in minKey and the
	// two-pass minKeyScanGeneric.
	minNarrow bool
	minKeyC   []uint64
}

// New returns a partition of g with the given part capacity and every vertex
// unassigned.
func New(g *graph.Graph, capacity int) *P {
	if capacity <= 0 {
		panic("partition: capacity must be positive")
	}
	p := &P{
		g:        g,
		part:     make([]int32, g.NumVertices()),
		size:     make([]int32, capacity),
		vw:       make([]float64, capacity),
		internal: make([]float64, capacity),
		cut:      make([]float64, capacity),
	}
	if capacity <= math.MaxInt16 {
		p.part16 = make([]int16, g.NumVertices())
		for i := range p.part16 {
			p.part16[i] = Unassigned
		}
	}
	for i := range p.part {
		p.part[i] = Unassigned
	}
	return p
}

// FromAssignment builds a fully-assigned partition from a part id per vertex.
// Ids must lie in [0, capacity).
func FromAssignment(g *graph.Graph, assign []int32, capacity int) (*P, error) {
	if len(assign) != g.NumVertices() {
		return nil, fmt.Errorf("partition: assignment length %d != vertex count %d", len(assign), g.NumVertices())
	}
	p := New(g, capacity)
	for v, a := range assign {
		if a < 0 || int(a) >= capacity {
			return nil, fmt.Errorf("partition: vertex %d assigned to invalid part %d", v, a)
		}
		p.Assign(v, int(a))
	}
	return p, nil
}

// Graph returns the underlying graph.
func (p *P) Graph() *graph.Graph { return p.g }

// Capacity returns the number of part slots.
func (p *P) Capacity() int { return len(p.size) }

// NumParts returns the number of non-empty parts.
func (p *P) NumParts() int { return p.nonEmpty }

// NumAssigned returns how many vertices have been placed.
func (p *P) NumAssigned() int { return p.assigned }

// Complete reports whether every vertex is assigned.
func (p *P) Complete() bool { return p.assigned == p.g.NumVertices() }

// Part returns the part of v, or Unassigned.
func (p *P) Part(v int) int { return int(p.partAt(v)) }

// partAt reads v's part through the int16 mirror when one exists: the mirror
// is half the footprint of the canonical int32 array, so the random
// per-proposal lookups stay L1-resident on graphs twice as large. The mirror
// is updated alongside every part write, so the two views never disagree.
func (p *P) partAt(v int) int32 {
	if p.part16 != nil {
		return int32(p.part16[v])
	}
	return p.part[v]
}

// PartSize returns the number of vertices in part a.
func (p *P) PartSize(a int) int { return int(p.size[a]) }

// PartVertexWeight returns the total vertex weight of part a.
func (p *P) PartVertexWeight(a int) float64 { return p.vw[a] }

// PartCut returns cut(A, V-A) for part a.
func (p *P) PartCut(a int) float64 { return p.cut[a] }

// PartInternalOrdered returns the paper's W(A): the ordered-pair internal
// weight, i.e. twice the sum of the weights of edges inside a.
func (p *P) PartInternalOrdered(a int) float64 { return 2 * p.internal[a] }

// CrossingWeight returns the total weight of crossing edges, each counted
// once. The paper's Cut objective equals exactly twice this value.
func (p *P) CrossingWeight() float64 { return p.crossing }

// Assign places an unassigned vertex v into part a.
func (p *P) Assign(v, a int) {
	if p.part[v] != Unassigned {
		panic(fmt.Sprintf("partition: vertex %d already assigned", v))
	}
	p.part[v] = int32(a)
	if p.part16 != nil {
		p.part16[v] = int16(a)
	}
	if p.size[a] == 0 {
		p.nonEmpty++
	}
	p.size[a]++
	p.vw[a] += p.g.VertexWeight(v)
	p.internal[a] += p.g.VertexLoop(v)
	p.assigned++
	nbrs := p.g.Neighbors(v)
	wts := p.g.Weights(v)
	for i, u := range nbrs {
		b := p.part[u]
		if b == Unassigned {
			continue
		}
		w := wts[i]
		if int(b) == a {
			p.internal[a] += w
		} else {
			p.cut[a] += w
			p.cut[b] += w
			p.crossing += w
		}
	}
	p.minTouch(a)
}

// Move transfers an assigned vertex v to part `to`, updating all statistics
// in O(deg(v)).
func (p *P) Move(v, to int) {
	from := int(p.partAt(v))
	if from == Unassigned {
		panic(fmt.Sprintf("partition: moving unassigned vertex %d", v))
	}
	if from == to {
		return
	}
	nbrs := p.g.Neighbors(v)
	wts := p.g.Weights(v)
	for i, u := range nbrs {
		b := int(p.part[u])
		w := wts[i]
		switch b {
		case Unassigned:
		case from:
			// Internal to `from` becomes crossing.
			p.internal[from] -= w
			p.cut[from] += w
			p.cut[to] += w
			p.crossing += w
		case to:
			// Crossing becomes internal to `to`.
			p.cut[from] -= w
			p.cut[to] -= w
			p.crossing -= w
			p.internal[to] += w
		default:
			// Crossing either way; only the v-side part changes.
			p.cut[from] -= w
			p.cut[to] += w
		}
	}
	p.part[v] = int32(to)
	if p.part16 != nil {
		p.part16[v] = int16(to)
	}
	p.size[from]--
	if p.size[from] == 0 {
		p.nonEmpty--
	}
	if p.size[to] == 0 {
		p.nonEmpty++
	}
	p.size[to]++
	vw := 1.0
	if !p.g.UnitVertexWeights() {
		vw = p.g.VertexWeight(v)
	}
	p.vw[from] -= vw
	p.vw[to] += vw
	if l := p.g.VertexLoop(v); l != 0 {
		p.internal[from] -= l
		p.internal[to] += l
	}
	p.minTouch(from)
	p.minTouch(to)
}

// MoveConns is Move for callers that already scanned v's neighborhood:
// connFrom and connTo are v's total edge weight into its current part and
// into `to`, other its weight into every other assigned neighbor's part
// (exactly score.moveConns' split). The statistics update is O(1) aggregated
// arithmetic instead of a per-edge loop — the same numbers grouped
// differently, exact whenever edge weights sum without rounding (integral
// weights, as in every golden instance) and within accumulator drift
// otherwise. score.Tracker.Apply uses it to commit a move whose connection
// weights MoveDelta already computed, eliminating one of the two adjacency
// scans an accepted proposal used to pay.
func (p *P) MoveConns(v, to int, connFrom, connTo, other float64) {
	from := int(p.partAt(v))
	if from == Unassigned {
		panic(fmt.Sprintf("partition: moving unassigned vertex %d", v))
	}
	if from == to {
		return
	}
	p.internal[from] -= connFrom
	p.internal[to] += connTo
	p.cut[from] += connFrom - connTo - other
	p.cut[to] += connFrom - connTo + other
	p.crossing += connFrom - connTo
	p.part[v] = int32(to)
	if p.part16 != nil {
		p.part16[v] = int16(to)
	}
	p.size[from]--
	if p.size[from] == 0 {
		p.nonEmpty--
	}
	if p.size[to] == 0 {
		p.nonEmpty++
	}
	p.size[to]++
	vw := 1.0
	if !p.g.UnitVertexWeights() {
		vw = p.g.VertexWeight(v)
	}
	p.vw[from] -= vw
	p.vw[to] += vw
	if l := p.g.VertexLoop(v); l != 0 {
		p.internal[from] -= l
		p.internal[to] += l
	}
	p.minTouch(from)
	p.minTouch(to)
}

// NonEmptyParts returns the ids of all non-empty parts in increasing order.
func (p *P) NonEmptyParts() []int {
	return p.AppendNonEmptyParts(make([]int, 0, p.nonEmpty))
}

// AppendNonEmptyParts appends the ids of all non-empty parts to dst in
// increasing order and returns the extended slice: NonEmptyParts into a
// buffer the caller reuses across calls.
func (p *P) AppendNonEmptyParts(dst []int) []int {
	for a, sz := range p.size {
		if sz > 0 {
			dst = append(dst, a)
		}
	}
	return dst
}

// MinInternalPart returns the non-empty part with the smallest internal
// weight, excluding `exclude` (pass -1 to exclude nothing); ties resolve to
// the lowest part id, and -1 is returned when no eligible part exists. The
// ordering is identical to scanning NonEmptyParts in ascending order and
// keeping the first strictly-smaller PartInternalOrdered — the annealer's
// high-temperature "feed the starving part" target — but is O(1) amortized:
// the first call arms an incrementally maintained key array that turns the
// query into a short branchless reduction, so per-proposal callers pay
// neither the allocation nor the O(capacity) method-call scan the pre-cache
// code paid.
func (p *P) MinInternalPart(exclude int) int {
	if !p.minTrack || p.minDirty {
		p.refillMinKeys()
	}
	if p.minNarrow {
		return p.minCompositeScan(exclude)
	}
	keys := p.minKey
	masked := exclude >= 0 && exclude < len(keys)
	var saved uint64
	if masked { // mask the excluded slot for the duration of the scan
		saved = keys[exclude]
		keys[exclude] = emptyMinKey
	}
	mk, idx := minKeyScanGeneric(keys)
	best := -1
	if mk != emptyMinKey {
		best = idx
	}
	if masked {
		keys[exclude] = saved
	}
	return best
}

// minKeyScanGeneric is the portable argmin key scan: the minimum key and
// the lowest index holding it (idx is meaningless when every slot is
// emptyMinKey — callers check mk first).
//
// Pass 1 finds the minimum as a four-wide compare-and-cmov integer
// reduction — the keys are bit-mapped so unsigned order is weight order,
// and integer mins compile branchless where the float min builtin pays NaN
// and signed-zero fixups per element. Pass 2 finds the first slot holding
// it — the exact lowest-id tie-break of an ascending NonEmptyParts scan.
// For at most 64 slots pass 2 is a branchless equality bitmask plus a
// trailing-zero count; a first-match break loop mispredicts its exit every
// call, and that one mispredict costs more than the whole mask loop.
func minKeyScanGeneric(keys []uint64) (mk uint64, idx int) {
	m0, m1, m2, m3 := emptyMinKey, emptyMinKey, emptyMinKey, emptyMinKey
	i := 0
	for ; i+4 <= len(keys); i += 4 {
		m0 = min(m0, keys[i])
		m1 = min(m1, keys[i+1])
		m2 = min(m2, keys[i+2])
		m3 = min(m3, keys[i+3])
	}
	for ; i < len(keys); i++ {
		m0 = min(m0, keys[i])
	}
	mk = min(min(m0, m1), min(m2, m3))
	if mk == emptyMinKey {
		return mk, 0
	}
	if len(keys) <= 64 {
		var eq uint64
		for a, k := range keys {
			var bit uint64
			if k == mk {
				bit = 1
			}
			eq |= bit << uint(a)
		}
		return mk, bits.TrailingZeros64(eq)
	}
	for a, k := range keys {
		if k == mk {
			return mk, a
		}
	}
	return mk, 0
}

// emptyMinKey is the argmin key of an empty part slot: above minKeyOf of
// every float64, so empty slots can never win the reduction.
const emptyMinKey = ^uint64(0)

// minKeyOf maps a float64 onto a uint64 whose unsigned order is the float
// total order (the usual sign-flip trick). Equal weights map to equal keys,
// so pass 2's first-equal scan keeps the lowest-id tie-break; the one
// refinement over the old < scan is that a -0.0 weight orders before +0.0
// instead of tying, which no realizable internal weight hits.
func minKeyOf(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// minTouch refreshes part a's argmin key after its internal weight or
// emptiness changed: one unconditional store.
func (p *P) minTouch(a int) {
	if !p.minTrack || p.minDirty {
		return
	}
	if p.minNarrow {
		p.minKeyC[a] = p.compositeKeyOf(a)
		return
	}
	if p.size[a] == 0 {
		p.minKey[a] = emptyMinKey
	} else {
		p.minKey[a] = minKeyOf(p.internal[a])
	}
}

// refillMinKeys re-derives every argmin key from the live statistics. It
// runs once when MinInternalPart first arms the cache and after a bulk
// CopyFrom, never in the per-move path.
func (p *P) refillMinKeys() {
	p.minTrack = true
	p.minDirty = false
	if p.minKey == nil && p.minKeyC == nil {
		g := p.g
		// The composite gate is graph-level and the graph is immutable, so
		// the choice is made once: integral edge weights summing below
		// 2^31 keep every internal weight exactly representable in the
		// high half of the composite.
		p.minNarrow = g.UnitEdgeWeights() && !g.HasLoops() &&
			g.TotalEdgeWeight() < float64(1<<31) && len(p.size) <= math.MaxUint32
		if p.minNarrow {
			p.minKeyC = make([]uint64, len(p.size))
		} else {
			p.minKey = make([]uint64, len(p.size))
		}
	}
	if p.minNarrow {
		for a := range p.minKeyC {
			p.minKeyC[a] = p.compositeKeyOf(a)
		}
		return
	}
	for a := range p.minKey {
		if p.size[a] == 0 {
			p.minKey[a] = emptyMinKey
		} else {
			p.minKey[a] = minKeyOf(p.internal[a])
		}
	}
}

// compositeKeyOf packs part a's argmin rank for the narrow path: the
// integral internal weight in the high 32 bits (the all-ones sentinel for
// an empty slot) and the part id in the low 32, so uint64 order is the
// lexicographic (weight, lowest id) order the argmin wants.
func (p *P) compositeKeyOf(a int) uint64 {
	if p.size[a] == 0 {
		return emptyCompositeBase | uint64(a)
	}
	return uint64(uint32(p.internal[a]))<<32 | uint64(a)
}

// emptyCompositeBase is the high half of an empty slot's composite key:
// larger than any real weight under the narrow gate (weights < 2^31).
const emptyCompositeBase = uint64(^uint32(0)) << 32

// minCompositeScan is the narrow-path argmin: a branchless four-chain min
// reduction over the composite (weight<<32 | id) keys. The composite order
// makes the index recovery free — the low half of the minimum is the part
// id — so one pass suffices where the wide path needs two. The excluded
// slot is masked by an 8-byte aligned store the immediately following
// loads forward from cleanly.
func (p *P) minCompositeScan(exclude int) int {
	keys := p.minKeyC
	masked := exclude >= 0 && exclude < len(keys)
	var saved uint64
	if masked {
		saved = keys[exclude]
		keys[exclude] = emptyCompositeBase | uint64(exclude)
	}
	m0, m1, m2, m3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	i := 0
	for ; i+4 <= len(keys); i += 4 {
		m0 = min(m0, keys[i])
		m1 = min(m1, keys[i+1])
		m2 = min(m2, keys[i+2])
		m3 = min(m3, keys[i+3])
	}
	for ; i < len(keys); i++ {
		m0 = min(m0, keys[i])
	}
	mk := min(min(m0, m1), min(m2, m3))
	if masked {
		keys[exclude] = saved
	}
	if mk >= emptyCompositeBase {
		return -1
	}
	return int(uint32(mk))
}

// VerticesOf returns the vertices currently in part a, in increasing order.
func (p *P) VerticesOf(a int) []int32 {
	dst := make([]int32, 0, p.size[a])
	a32 := int32(a)
	for v, pa := range p.part {
		if pa == a32 {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// ConnectionToPart returns the total weight of edges from v to vertices of
// part a (excluding v itself).
func (p *P) ConnectionToPart(v, a int) float64 {
	total := 0.0
	nbrs := p.g.Neighbors(v)
	wts := p.g.Weights(v)
	for i, u := range nbrs {
		if int(p.part[u]) == a {
			total += wts[i]
		}
	}
	return total
}

// Connections finds the parts a given part shares edges with and the
// total weight of those edges. Its scratch is reused across calls, so once
// it has grown to a partition's capacity a query allocates nothing. The
// zero value is ready to use.
type Connections struct {
	// W[b] is the weight between the part last passed to Of and part b,
	// for each b Of returned.
	W     []float64
	parts []int
	mark  []uint32 // mark[b] == stamp: b is already in parts
	stamp uint32
}

// Of returns the parts other than a (and not Unassigned) joined to part a by
// at least one edge, in increasing order, and sets W for each, where
// members are the vertices of part a in increasing order (a caller that
// indexes its parts' members, as fusion-fission does, passes its list
// instead of paying a scan of every vertex). Each weight is summed in
// increasing vertex order, then adjacency order. The slice is valid until
// the next call.
func (c *Connections) Of(p *P, members []int32) []int {
	if len(c.mark) < len(p.size) {
		c.W = make([]float64, len(p.size))
		c.mark = make([]uint32, len(p.size))
		c.stamp = 0
	}
	c.stamp++
	if c.stamp == 0 { // wrapped: old marks could collide, so clear them
		clear(c.mark)
		c.stamp = 1
	}
	parts := c.parts[:0]
	if len(members) == 0 {
		c.parts = parts
		return parts
	}
	a32 := p.part[members[0]]
	for _, v := range members {
		wts := p.g.Weights(int(v))
		for i, u := range p.g.Neighbors(int(v)) {
			b := p.part[u]
			if b == a32 || b == Unassigned {
				continue
			}
			if c.mark[b] != c.stamp {
				c.mark[b] = c.stamp
				c.W[b] = 0
				parts = append(parts, int(b))
			}
			c.W[b] += wts[i]
		}
	}
	slices.Sort(parts)
	c.parts = parts
	return parts
}

// Assignment returns a copy of the per-vertex part ids.
func (p *P) Assignment() []int32 {
	return append([]int32(nil), p.part...)
}

// PartView returns the live per-vertex part-id slice, NOT a copy. Callers
// must treat it as read-only and must not hold it across mutations; it
// exists so per-move hot loops (score.moveConns) can index assignments
// directly instead of paying a method call per neighbor.
func (p *P) PartView() []int32 { return p.part }

// PartView16 returns the live int16 mirror of the per-vertex part ids, or
// nil when the part capacity exceeds the int16 range. Same read-only,
// don't-hold-across-mutations contract as PartView; the narrower entries
// keep the moveConns random-access loads in L1 on graphs twice as large.
func (p *P) PartView16() []int16 { return p.part16 }

// Clone returns an independent deep copy.
func (p *P) Clone() *P {
	q := &P{
		g:        p.g,
		part:     append([]int32(nil), p.part...),
		size:     append([]int32(nil), p.size...),
		vw:       append([]float64(nil), p.vw...),
		internal: append([]float64(nil), p.internal...),
		cut:      append([]float64(nil), p.cut...),
		assigned: p.assigned,
		nonEmpty: p.nonEmpty,
		crossing: p.crossing,
	}
	if p.part16 != nil {
		q.part16 = append([]int16(nil), p.part16...)
	}
	return q
}

// CopyFrom overwrites p's state with q's. Both must share the same graph and
// capacity; this is the allocation-free restore used by search loops.
func (p *P) CopyFrom(q *P) {
	if p.g != q.g || len(p.size) != len(q.size) {
		panic("partition: CopyFrom with incompatible partition")
	}
	copy(p.part, q.part)
	if p.part16 != nil {
		if q.part16 != nil {
			copy(p.part16, q.part16)
		} else {
			for i, a := range q.part {
				p.part16[i] = int16(a)
			}
		}
	}
	copy(p.size, q.size)
	copy(p.vw, q.vw)
	copy(p.internal, q.internal)
	copy(p.cut, q.cut)
	p.assigned = q.assigned
	p.nonEmpty = q.nonEmpty
	p.crossing = q.crossing
	p.minDirty = true // bulk overwrite: revalidate the argmin on next query
}

// Compact renumbers non-empty parts to 0..NumParts-1 and returns the final
// assignment. The partition itself is left untouched.
func (p *P) Compact() []int32 {
	remap := make(map[int32]int32, p.nonEmpty)
	next := int32(0)
	out := make([]int32, len(p.part))
	for v, a := range p.part {
		if a == Unassigned {
			out[v] = Unassigned
			continue
		}
		id, ok := remap[a]
		if !ok {
			id = next
			remap[a] = id
			next++
		}
		out[v] = id
	}
	return out
}

// Validate recomputes every statistic from scratch and returns an error on
// the first mismatch. Used by tests and enabled invariant checks.
func (p *P) Validate() error {
	n := p.g.NumVertices()
	cap_ := len(p.size)
	size := make([]int32, cap_)
	vw := make([]float64, cap_)
	internal := make([]float64, cap_)
	cut := make([]float64, cap_)
	crossing := 0.0
	assigned := 0
	for v := 0; v < n; v++ {
		a := p.part[v]
		if a == Unassigned {
			continue
		}
		if int(a) >= cap_ {
			return fmt.Errorf("partition: vertex %d in out-of-range part %d", v, a)
		}
		assigned++
		size[a]++
		vw[a] += p.g.VertexWeight(v)
		internal[a] += p.g.VertexLoop(v)
	}
	p.g.ForEachEdge(func(u, v int, w float64) {
		a, b := p.part[u], p.part[v]
		if a == Unassigned || b == Unassigned {
			return
		}
		if a == b {
			internal[a] += w
		} else {
			cut[a] += w
			cut[b] += w
			crossing += w
		}
	})
	nonEmpty := 0
	for a := 0; a < cap_; a++ {
		if size[a] > 0 {
			nonEmpty++
		}
		if size[a] != p.size[a] {
			return fmt.Errorf("partition: part %d size %d, tracked %d", a, size[a], p.size[a])
		}
		if !approxEq(vw[a], p.vw[a]) {
			return fmt.Errorf("partition: part %d vertex weight %g, tracked %g", a, vw[a], p.vw[a])
		}
		if !approxEq(internal[a], p.internal[a]) {
			return fmt.Errorf("partition: part %d internal %g, tracked %g", a, internal[a], p.internal[a])
		}
		if !approxEq(cut[a], p.cut[a]) {
			return fmt.Errorf("partition: part %d cut %g, tracked %g", a, cut[a], p.cut[a])
		}
	}
	if assigned != p.assigned {
		return fmt.Errorf("partition: assigned %d, tracked %d", assigned, p.assigned)
	}
	if nonEmpty != p.nonEmpty {
		return fmt.Errorf("partition: nonEmpty %d, tracked %d", nonEmpty, p.nonEmpty)
	}
	if !approxEq(crossing, p.crossing) {
		return fmt.Errorf("partition: crossing %g, tracked %g", crossing, p.crossing)
	}
	return nil
}

func approxEq(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-6*scale
}
