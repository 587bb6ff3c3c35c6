// Package score is the incremental scoring layer shared by every solver and
// refiner in this repository. It answers the question the fastest
// partitioners (KaFFPaE, KaHyPar) are built around: "what would this single
// move do to the objective?" in O(deg v), and "what is the objective now?"
// in O(1) — instead of the O(k) part scan of objective.Evaluate per
// candidate move that the pre-score code paid.
//
// The layer has two entry points:
//
//   - Tracker binds to one *partition.P, an objective and a smoothing eps.
//     It caches each part's objective term (cut, Ncut or Mcut contribution,
//     self-loop weights included via the partition's internal-weight
//     accounting), maintains the running total, and keeps both in sync as
//     moves are committed through Apply/Assign. MoveDelta and MoveValue
//     answer hypothetical single-vertex moves without mutating the
//     partition.
//   - Delta is the stateless form: the same O(deg v) hypothetical-move
//     arithmetic against a bare partition, for callers whose partition is
//     rebuilt and bulk-mutated too often to keep a tracker bound. Conns
//     gathers v's weight to every neighbouring part in one adjacency pass
//     and answers Delta for each of them in O(1), bit-identical to it
//     (fusion-fission's nucleon relaxation).
//
// # Drift and Rebuild
//
// The running total is a float64 accumulator: every Apply adds and subtracts
// part terms, so it drifts from the freshly-summed value by O(1 ulp) per
// operation. Tracker bounds the drift deterministically, three ways: the
// accumulator uses Neumaier-compensated addition (a degenerate part's
// smoothed term can reach cut/eps, and its later removal must not leave the
// cancellation residue behind); removing a term that towers over the
// remaining total triggers an immediate resummation; and every rebuildEvery
// committed operations the tracker resums all terms from the partition's
// own statistics regardless, in ascending part order — the exact summation
// order of objective.EvaluateSmoothed — so Value() is periodically restored
// to bit equality with a full evaluation. Every trigger counts operations
// or compares committed values, never wall-clock, so runs stay
// reproducible. Rebuild can also be called explicitly after mutating the
// partition behind the tracker's back.
package score

import (
	"math"
	"unsafe"

	"repro/internal/objective"
	"repro/internal/partition"
)

// rebuildEvery is the deterministic resummation cadence: after this many
// committed Apply/Assign operations the tracker resums every term from
// scratch. At ~1 ulp of drift per operation the accumulated error stays
// around 1e-13 relative, far inside the 1e-9 agreement the tests demand.
const rebuildEvery = 4096

// Tracker maintains the smoothed objective of one partition incrementally.
// All mutations must go through Apply/Assign (or be followed by a Rebuild)
// for Value to stay correct; MoveDelta and MoveValue are always computed
// from the partition's live statistics and never go stale.
type Tracker struct {
	p   *partition.P
	obj objective.Objective
	eps float64

	term []float64 // cached objective term per part slot (0 when empty)
	// finite + comp is the running sum of the finite terms, maintained with
	// Neumaier-compensated addition: a degenerate part's smoothed term can
	// be ~cut/eps (orders of magnitude above the rest of the sum), and when
	// such a transient term is later subtracted back out, plain float64
	// accumulation would keep the cancellation residue forever. The
	// compensation recovers those low bits, keeping Value within 1e-9 of a
	// fresh evaluation between Rebuilds even through degenerate episodes.
	finite float64
	comp   float64
	infs   int // number of parts whose term is +Inf (eps = 0 Mcut)
	ops    int // committed operations since the last resummation

	// Connection cache: the (v, from, to) → (connA, connB, other) split the
	// last MoveValue/MoveValueConn computed, valid until the partition next
	// mutates. When Apply commits exactly that move it hands the cached
	// split to partition.MoveConns instead of letting Move rescan v's
	// adjacency — the propose-then-accept pattern of every Metropolis loop
	// pays one adjacency scan per accepted proposal instead of two.
	connV, connFrom, connTo int
	connA, connB, connOther float64
	// connTermA/connTermB are the post-move terms of `from` and `to` that
	// moveValueFromConns computed for the cached move; a cache-hit Apply
	// installs them directly instead of re-deriving obj.Term from the
	// updated statistics.
	connTermA, connTermB float64
	connValid            bool
}

// NewTracker binds a tracker to p and performs the initial O(capacity)
// resummation. eps is the smoothing added to every Ncut/Mcut denominator,
// exactly as in objective.EvaluateSmoothed; eps = 0 tracks the exact
// objective, including +Inf Mcut states.
func NewTracker(p *partition.P, obj objective.Objective, eps float64) *Tracker {
	t := &Tracker{
		p:    p,
		obj:  obj,
		eps:  eps,
		term: make([]float64, p.Capacity()),
	}
	t.Rebuild()
	return t
}

// Partition returns the tracked partition.
func (t *Tracker) Partition() *partition.P { return t.p }

// PartTerm returns part a's cached objective term — the summand Value
// maintains (0 for empty parts). Exposed for diagnostics and for frozen
// benchmark baselines that replicate historical delta arithmetic.
func (t *Tracker) PartTerm(a int) float64 { return t.term[a] }

// Value returns the current smoothed objective in O(1). It equals
// objective.EvaluateSmoothed(p, eps) up to the bounded accumulator drift,
// and exactly at every Rebuild point.
func (t *Tracker) Value() float64 {
	if t.infs > 0 {
		return math.Inf(1)
	}
	return t.finite + t.comp
}

// Rebuild resums every part term from the partition's statistics, in
// ascending part order — the summation order of objective.EvaluateSmoothed —
// restoring Value to exact equality with a full evaluation. O(capacity).
func (t *Tracker) Rebuild() {
	t.finite, t.comp, t.infs = 0, 0, 0
	for a := range t.term {
		if t.p.PartSize(a) == 0 {
			t.term[a] = 0
			continue
		}
		v := t.obj.Term(t.p.PartCut(a), t.p.PartInternalOrdered(a), t.eps)
		t.term[a] = v
		if math.IsInf(v, 1) {
			t.infs++
		} else {
			t.finite += v
		}
	}
	t.ops = 0
}

// MoveDelta returns the change of the smoothed objective if the assigned
// vertex v moved from part `from` to part `to`, in O(deg v), without
// mutating the partition. Infinite states follow Value's conventions:
// a move that resolves the last +Inf term returns -Inf, one that creates
// the first returns +Inf, and a move between two +Inf states returns 0.
func (t *Tracker) MoveDelta(v, from, to int) float64 {
	if from == to {
		return 0
	}
	after := t.MoveValue(v, from, to)
	before := t.Value()
	if math.IsInf(after, 1) && math.IsInf(before, 1) {
		return 0 // Inf - Inf would be NaN; an Inf-to-Inf move is neutral
	}
	return after - before
}

// MoveValue returns the smoothed objective the partition would have after
// moving the assigned vertex v from part `from` to part `to`, in O(deg v),
// without mutating the partition. Only the terms of `from` and `to` can
// change under a move (a third part's cut is unaffected), so the value is
// the running total with those two terms exchanged for their post-move
// versions.
func (t *Tracker) MoveValue(v, from, to int) float64 {
	if from == to {
		return t.Value()
	}
	connA, connB, other := moveConns(t.p, v, from, to)
	t.cacheConns(v, from, to, connA, connB, other)
	return t.moveValueFromConns(v, from, to, connA, connB, other)
}

// MoveValueConn is MoveValue for callers that already scanned v's
// neighborhood: connFrom and connTo are v's total edge weight into the two
// parts, other its weight into every other *assigned* neighbor. Refiners
// that accumulate per-part connection weights while collecting candidate
// parts (refine.KWay) evaluate each additional candidate in O(1) with this
// instead of paying a fresh O(deg v) scan per candidate.
func (t *Tracker) MoveValueConn(v, from, to int, connFrom, connTo, other float64) float64 {
	if from == to {
		return t.Value()
	}
	t.cacheConns(v, from, to, connFrom, connTo, other)
	return t.moveValueFromConns(v, from, to, connFrom, connTo, other)
}

// InvalidateConnCache drops the cached adjacency split, forcing the next
// Apply to rescan v's neighborhood. Call it after mutating the partition
// directly (alongside Rebuild) — a cached split predating the mutation would
// otherwise be trusted by an Apply of the same (v, from, to) triple.
func (t *Tracker) InvalidateConnCache() { t.connValid = false }

// cacheConns remembers the adjacency split of the move just evaluated so a
// matching Apply can commit it without rescanning.
func (t *Tracker) cacheConns(v, from, to int, connA, connB, other float64) {
	t.connV, t.connFrom, t.connTo = v, from, to
	t.connA, t.connB, t.connOther = connA, connB, other
	t.connValid = true
}

func (t *Tracker) moveValueFromConns(v, from, to int, connA, connB, other float64) float64 {
	cutA2, wA2, cutB2, wB2 := moveStatsFromConns(t.p, v, from, to, connA, connB, other)
	afterA := t.obj.Term(cutA2, wA2, t.eps)
	afterB := t.obj.Term(cutB2, wB2, t.eps)
	// Moving the last vertex out of `from` empties it; an empty part
	// contributes nothing (its stats are all zero, so Term already
	// returns 0 — asserting that here keeps eps = 0 Mcut out of 0/0).
	if t.p.PartSize(from) == 1 {
		afterA = 0
	}
	t.connTermA, t.connTermB = afterA, afterB // completes the cacheConns entry
	if t.infs == 0 && !math.IsInf(afterA, 1) && !math.IsInf(afterB, 1) {
		// No infinite terms anywhere: the swap below degenerates to four
		// adds in the exact same left-to-right order, minus the loop and
		// IsInf bookkeeping. Bit-identical to the general path.
		return t.finite + t.comp - t.term[from] - t.term[to] + afterA + afterB
	}
	finite, infs := t.finite+t.comp, t.infs
	for _, old := range [2]float64{t.term[from], t.term[to]} {
		if math.IsInf(old, 1) {
			infs--
		} else {
			finite -= old
		}
	}
	for _, nw := range [2]float64{afterA, afterB} {
		if math.IsInf(nw, 1) {
			infs++
		} else {
			finite += nw
		}
	}
	if infs > 0 {
		return math.Inf(1)
	}
	return finite
}

// Apply commits the move of vertex v to part `to` in O(deg v): the
// partition is mutated and the two affected terms are refreshed from its
// updated statistics. A no-op when v already sits in `to`.
func (t *Tracker) Apply(v, to int) {
	from := t.p.Part(v)
	if from == to {
		return
	}
	if t.connValid && t.connV == v && t.connFrom == from && t.connTo == to {
		t.p.MoveConns(v, to, t.connA, t.connB, t.connOther)
		t.connValid = false
		t.applyTermPair(from, to, t.connTermA, t.connTermB)
		t.bump()
		return
	}
	t.connValid = false
	t.p.Move(v, to)
	t.refresh(from)
	t.refresh(to)
	t.bump()
}

// Assign places an unassigned vertex v into part a and refreshes every
// affected term: a's, plus — unlike a move — the term of every distinct
// neighboring part, whose cut grows by the newly-counted crossing edges.
// O(deg v).
func (t *Tracker) Assign(v, a int) {
	t.connValid = false // assignment invalidates any cached adjacency split
	t.p.Assign(v, a)
	t.refresh(a)
	g := t.p.Graph()
	for _, u := range g.Neighbors(v) {
		b := t.p.Part(int(u))
		if b == partition.Unassigned || b == a {
			continue
		}
		t.refresh(b)
	}
	t.bump()
}

// refresh recomputes the cached term of part a from the partition's live
// statistics and folds the difference into the running total. Refreshing a
// part twice in one operation is harmless (the second refresh is a no-op),
// which is why Assign needs no neighbor-part dedup.
func (t *Tracker) refresh(a int) {
	var nw float64
	if t.p.PartSize(a) > 0 {
		nw = t.obj.Term(t.p.PartCut(a), t.p.PartInternalOrdered(a), t.eps)
	}
	t.applyTerm(a, nw)
}

// applyTerm installs part a's new objective term nw — either freshly
// recomputed (refresh) or carried over from the hypothetical-move arithmetic
// of a cache-hit Apply — and folds the difference into the running total.
func (t *Tracker) applyTerm(a int, nw float64) {
	old := t.term[a]
	if old == nw {
		return
	}
	if math.IsInf(old, 1) {
		t.infs--
	} else {
		t.add(-old)
	}
	if math.IsInf(nw, 1) {
		t.infs++
	} else {
		t.add(nw)
	}
	t.term[a] = nw
	// A term that towered over what now remains (a degenerate part's
	// cut/eps spike being repaired) leaves rounding residue that is large
	// *relative to the shrunken total*; resum immediately instead of
	// waiting for the operation cadence. The trigger depends only on the
	// committed move sequence, so determinism is preserved.
	if !math.IsInf(old, 1) && math.Abs(old) > 1e6*(1+math.Abs(t.finite+t.comp)) {
		t.Rebuild()
	}
}

// applyTermPair installs the two post-move terms a cache-hit Apply carries,
// straight-lining the all-finite case that is every Metropolis accept: the
// infinity bookkeeping collapses to one entry test and the tower-residue
// check runs once against the final total instead of once per term (the
// check is a conservative resum heuristic either way; its trigger still
// depends only on the committed move sequence, so determinism holds).
func (t *Tracker) applyTermPair(pa, pb int, na, nb float64) {
	if t.infs != 0 || math.IsInf(na, 1) || math.IsInf(nb, 1) {
		t.applyTerm(pa, na)
		t.applyTerm(pb, nb)
		return
	}
	// infs == 0 means both old terms are finite too.
	oa, ob := t.term[pa], t.term[pb]
	if oa != na {
		t.add(-oa)
		t.add(na)
		t.term[pa] = na
	}
	if ob != nb {
		t.add(-ob)
		t.add(nb)
		t.term[pb] = nb
	}
	if lim := 1e6 * (1 + math.Abs(t.finite+t.comp)); math.Abs(oa) > lim || math.Abs(ob) > lim {
		t.Rebuild()
	}
}

// add folds x into the running total with Neumaier's compensated addition,
// so terms that tower over the rest of the sum and are later removed do not
// leave their cancellation residue behind.
func (t *Tracker) add(x float64) {
	s := t.finite + x
	if math.Abs(t.finite) >= math.Abs(x) {
		t.comp += (t.finite - s) + x
	} else {
		t.comp += (x - s) + t.finite
	}
	t.finite = s
}

// bump counts a committed operation and resums at the deterministic cadence.
func (t *Tracker) bump() {
	t.ops++
	if t.ops >= rebuildEvery {
		t.Rebuild()
	}
}

// Delta returns the change of the smoothed objective if the assigned vertex
// v moved from part `from` to part `to`, in O(deg v), without mutating p —
// the stateless form of Tracker.MoveDelta for callers whose partition is
// bulk-mutated between queries. Both before-terms are read from p's live
// statistics. eps must be positive if degenerate (zero-internal-weight)
// parts can occur, or the Inf arithmetic of the Mcut terms yields NaN.
func Delta(p *partition.P, obj objective.Objective, eps float64, v, from, to int) float64 {
	if from == to {
		return 0
	}
	connA, connB, other := moveConns(p, v, from, to)
	return deltaFromConns(p, obj, eps, v, from, to, connA, connB, other)
}

// deltaFromConns is Delta once v's connection weights are known.
func deltaFromConns(p *partition.P, obj objective.Objective, eps float64, v, from, to int, connA, connB, other float64) float64 {
	before := obj.Term(p.PartCut(from), p.PartInternalOrdered(from), eps) +
		obj.Term(p.PartCut(to), p.PartInternalOrdered(to), eps)
	cutA2, wA2, cutB2, wB2 := moveStatsFromConns(p, v, from, to, connA, connB, other)
	after := obj.Term(cutA2, wA2, eps) + obj.Term(cutB2, wB2, eps)
	return after - before
}

// Conns holds one vertex's connection weight to every part its neighbours
// occupy, gathered in a single pass over its adjacency. Each part's weight
// is grouped exactly as moveConns groups connA and connB for that part, so
// Conns.Delta equals Delta bit for bit while a caller weighing several
// target parts (fusion-fission's nucleon relaxation) pays one adjacency
// scan instead of one per target:
//
//   - int16 mirror, unit edge weights: neighbour counts (sums of 1.0 are
//     the integer counts exactly);
//   - int16 mirror, weighted: one sum over the even adjacency indices and
//     one over the odd ones, added as even + odd;
//   - no mirror (capacity above 32,767): one sum in adjacency order.
//
// Scratch is reused across calls; the zero value is ready to use.
type Conns struct {
	// Parts lists the distinct parts of v's neighbours, v's own part
	// included, in first-seen adjacency order. Valid until the next Gather.
	Parts []int

	v         int
	wd        float64   // v's weighted degree, as moveConns reads it
	even, odd []float64 // per entry of Parts
	// slot[b] is stamp<<32 | i when part b is Parts[i] in this gather.
	slot  []uint64
	stamp uint32
}

// Gather scans v's adjacency once and returns the distinct parts of its
// neighbours (see Parts). p must be complete.
func (c *Conns) Gather(p *partition.P, v int) []int {
	if !p.Complete() {
		panic("score: Conns.Gather needs a complete partition")
	}
	if len(c.slot) < p.Capacity() {
		c.slot = make([]uint64, p.Capacity())
		c.stamp = 0
	}
	c.stamp++
	if c.stamp == 0 { // wrapped: old entries could collide, so clear them
		clear(c.slot)
		c.stamp = 1
	}
	c.v = v
	c.Parts, c.even, c.odd = c.Parts[:0], c.even[:0], c.odd[:0]
	g := p.Graph()
	nbrs, wts := g.Neighbors(v), g.Weights(v)
	if part := p.PartView16(); part != nil {
		if g.UnitEdgeWeights() {
			for _, u := range nbrs {
				c.even[c.index(int(part[u]))]++
			}
			c.wd = float64(len(nbrs))
			return c.Parts
		}
		for i, u := range nbrs {
			if j := c.index(int(part[u])); i&1 == 0 {
				c.even[j] += wts[i]
			} else {
				c.odd[j] += wts[i]
			}
		}
	} else {
		part := p.PartView()
		for i, u := range nbrs {
			c.even[c.index(int(part[u]))] += wts[i]
		}
	}
	c.wd = g.WeightedDegree(v)
	return c.Parts
}

// index returns b's entry in Parts, adding it on first sight.
func (c *Conns) index(b int) int {
	if e := c.slot[b]; uint32(e>>32) == c.stamp {
		return int(uint32(e))
	}
	i := len(c.Parts)
	c.slot[b] = uint64(c.stamp)<<32 | uint64(i)
	c.Parts = append(c.Parts, b)
	c.even = append(c.even, 0)
	c.odd = append(c.odd, 0)
	return i
}

// To returns the gathered vertex's connection weight to part b (0 when no
// neighbour lies in b).
func (c *Conns) To(b int) float64 {
	if e := c.slot[b]; uint32(e>>32) == c.stamp {
		i := uint32(e)
		return c.even[i] + c.odd[i]
	}
	return 0
}

// Delta is Delta(p, obj, eps, v, from, to) for the gathered vertex v, which
// must sit in `from`, in O(1) and bit-identical to it. p must not have
// changed since the Gather.
func (c *Conns) Delta(p *partition.P, obj objective.Objective, eps float64, from, to int) float64 {
	if from == to {
		return 0
	}
	connA, connB := c.To(from), c.To(to)
	return deltaFromConns(p, obj, eps, c.v, from, to, connA, connB, c.wd-connA-connB)
}

// moveConns scans v's adjacency once and splits its incident edge weight
// into the connection to `from`, to `to`, and to every other assigned
// neighbor. Edges to unassigned vertices are excluded — they touch no cut.
// When the partition is complete, `other` is derived from the precomputed
// weighted degree instead of accumulated per neighbor: with k parts most
// neighbors land in neither `from` nor `to`, and skipping their adds keeps
// the scan to two accumulators.
func moveConns(p *partition.P, v, from, to int) (connA, connB, other float64) {
	g := p.Graph()
	nbrs := g.Neighbors(v)
	wts := g.Weights(v)
	if p.Complete() {
		if len(wts) < len(nbrs) {
			panic("score: adjacency weight slice shorter than neighbor slice")
		}
		// Prefer the int16 assignment mirror: half the footprint of the
		// int32 view, so the random per-neighbor loads stay L1-resident on
		// graphs twice as large. The accumulation is branchless — each
		// weight is masked to itself or +0.0 and always added, because a
		// neighbor's part is data-dependent noise no branch predictor
		// tracks — and runs two independent accumulator pairs so the adds
		// overlap instead of serializing on one float dependency chain.
		// Masked +0.0 adds are exact identities and integer-weight partial
		// sums are exact in either grouping, so the golden trajectories are
		// unchanged.
		if part := p.PartView16(); part != nil {
			f16, t16 := int16(from), int16(to)
			if g.UnitEdgeWeights() {
				// Unit weights make the weighted degree the neighbor count
				// exactly, saving the random wdeg load as well.
				wd := float64(len(nbrs))
				// Unit-weight graphs: count matching neighbors instead of
				// summing weights — the weight array is never loaded, so the
				// loop touches half the memory, and the counters are 1-cycle
				// integer adds with no float dependency chain. Sums of 1.0
				// below 2^53 equal float64(count) exactly, so this is
				// bit-identical to the weighted accumulation.
				var cA, cB int32
				// Every adjacency entry is a valid vertex id below
				// len(part) by graph construction, so the data-dependent
				// part lookups go through a raw pointer: the compiler
				// cannot prove the random indexes in range, and the
				// per-load bound checks it would otherwise emit are a
				// measurable fraction of this loop.
				pp := unsafe.Pointer(&part[0])
				// One accumulator pair, not an unrolled bank: the loop
				// body compiles to two CMOV increments per neighbor, and
				// keeping the live set at two counters plus two compare
				// operands is what keeps every value in registers — an
				// unrolled four-pair variant spills counters and loaded
				// parts to the stack each iteration and measures slower
				// than its extra ILP recovers.
				for _, u := range nbrs {
					b := *(*int16)(unsafe.Add(pp, uintptr(uint32(u))*2))
					if b == f16 {
						cA++
					}
					if b == t16 {
						cB++
					}
				}
				connA = float64(cA)
				connB = float64(cB)
				return connA, connB, wd - connA - connB
			}
			wd := g.WeightedDegree(v)
			wts = wts[:len(nbrs)]
			var cA0, cB0, cA1, cB1 float64
			i := 0
			for ; i+2 <= len(nbrs); i += 2 {
				b0, b1 := part[nbrs[i]], part[nbrs[i+1]]
				w0 := math.Float64bits(wts[i])
				w1 := math.Float64bits(wts[i+1])
				var mA0, mB0, mA1, mB1 uint64
				if b0 == f16 {
					mA0 = ^uint64(0)
				}
				if b0 == t16 {
					mB0 = ^uint64(0)
				}
				if b1 == f16 {
					mA1 = ^uint64(0)
				}
				if b1 == t16 {
					mB1 = ^uint64(0)
				}
				cA0 += math.Float64frombits(w0 & mA0)
				cB0 += math.Float64frombits(w0 & mB0)
				cA1 += math.Float64frombits(w1 & mA1)
				cB1 += math.Float64frombits(w1 & mB1)
			}
			if i < len(nbrs) {
				b := part[nbrs[i]]
				wb := math.Float64bits(wts[i])
				var mA, mB uint64
				if b == f16 {
					mA = ^uint64(0)
				}
				if b == t16 {
					mB = ^uint64(0)
				}
				cA0 += math.Float64frombits(wb & mA)
				cB0 += math.Float64frombits(wb & mB)
			}
			connA = cA0 + cA1
			connB = cB0 + cB1
			return connA, connB, wd - connA - connB
		}
		{
			part := p.PartView()
			f32, t32 := int32(from), int32(to)
			for i, u := range nbrs {
				if b := part[u]; b == f32 {
					connA += wts[i]
				} else if b == t32 {
					connB += wts[i]
				}
			}
		}
		return connA, connB, g.WeightedDegree(v) - connA - connB
	}
	for i, u := range nbrs {
		switch p.Part(int(u)) {
		case partition.Unassigned:
		case from:
			connA += wts[i]
		case to:
			connB += wts[i]
		default:
			other += wts[i]
		}
	}
	return connA, connB, other
}

// NeighborsAllIn reports whether every assigned neighbor of v lies in part
// a — v is "interior" to a and no single move of v can reduce any cut-based
// objective's crossing weight, which is what lets refine.KWay skip the full
// candidate scan for the (vast, on locality-ordered graphs) majority of
// vertices. On a complete partition with an int16 mirror the check reads
// the mirror; either way it is a plain scan with an early exit.
func NeighborsAllIn(p *partition.P, v, a int) bool {
	g := p.Graph()
	nbrs := g.Neighbors(v)
	if part := p.PartView16(); part != nil && p.Complete() {
		a16 := int16(a)
		for _, u := range nbrs {
			if part[u] != a16 {
				return false
			}
		}
		return true
	}
	for _, u := range nbrs {
		if b := p.Part(int(u)); b != a && b != partition.Unassigned {
			return false
		}
	}
	return true
}

// moveStatsFromConns computes, in O(1) from v's connection weights, the
// (cut, ordered internal weight) both affected parts would have after
// moving v from part `from` to part `to`. A self-loop on v carries its
// doubled weight between the parts' internal weights, exactly as
// partition.Move does.
func moveStatsFromConns(p *partition.P, v, from, to int, connA, connB, other float64) (cutA2, wA2, cutB2, wB2 float64) {
	cutA, wA := p.PartCut(from), p.PartInternalOrdered(from)
	cutB, wB := p.PartCut(to), p.PartInternalOrdered(to)
	loop2 := 2 * p.Graph().VertexLoop(v)
	// Leaving `from`: internal v-from edges become crossing, v's crossing
	// edges no longer touch `from`. Entering `to` symmetrically.
	cutA2 = cutA + connA - connB - other
	wA2 = wA - 2*connA - loop2
	cutB2 = cutB + connA - connB + other
	wB2 = wB + 2*connB + loop2
	return cutA2, wA2, cutB2, wB2
}
