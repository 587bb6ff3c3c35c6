package core

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/score"
)

// Energy scaling (section 4.1). The objective functions of section 1 are
// defined for a fixed part count and generally shrink as parts merge (no
// partition at all has the smallest value), so fusion-fission rescales the
// objective with a function shaped like the nuclear binding-energy curve:
// partitions of equal quality but different atom counts get comparable
// energies, with the minimum anchored at the target count K. Below K the
// penalty rises steeply (light nuclei: binding energy climbs fast), above K
// it rises gently (heavy nuclei: slow decline). At exactly K the penalty is
// 1, so energies there are the raw objective values reported in Table 1.
//
// The model is a thin binding-energy wrapper over the shared scoring layer
// (internal/score): whole-molecule energies sum objective.Term over the
// live atoms, per-move deltas come from score.Conns. The event loop
// evaluates the whole molecule once per event: both() takes the scaled
// energy and the raw objective from one pass over the live atoms, and the
// next event's "before" energy reuses that value. The pass visits the live
// slots in ascending order, the order objective.Evaluate sums its parts
// in, so the energies are bit-identical to a full evaluation; it costs
// O(atoms) plus one bitset word per 64 slots, not O(slots). Keeping per-part
// terms current through every fission and merge (a bound score.Tracker)
// would change that summation order, which the pinned trajectories depend
// on.

type energyModel struct {
	obj    objective.Objective
	k      int     // target atom count
	eps    float64 // smoothing for degenerate parts
	cBelow float64
	cAbove float64
}

func newEnergyModel(g *graph.Graph, obj objective.Objective, k int) *energyModel {
	n := g.NumVertices()
	eps := 1e-6
	if n > 0 {
		eps = 1e-6 * (2 * g.TotalEdgeWeight() / float64(n))
	}
	return &energyModel{obj: obj, k: k, eps: eps, cBelow: 8, cAbove: 2}
}

// penalty implements the binding-energy-shaped scaling.
func (e *energyModel) penalty(numAtoms int) float64 {
	k := float64(e.k)
	d := float64(numAtoms) - k
	if d < 0 {
		rel := -d / k
		return 1 + e.cBelow*rel*rel
	}
	rel := d / k
	return 1 + e.cAbove*rel
}

// energy returns the scaled objective of p, whose non-empty slots are the
// set bits of live.
func (e *energyModel) energy(p *partition.P, live []uint64) float64 {
	smoothed, _ := e.sum(p, live, false)
	return smoothed * e.penalty(p.NumParts())
}

// both returns the scaled energy and the raw objective of p from one pass
// over its live slots, bit-identical to energy(p, live) and raw(p).
func (e *energyModel) both(p *partition.P, live []uint64) (energy, raw float64) {
	smoothed, raw := e.sum(p, live, true)
	return smoothed * e.penalty(p.NumParts()), raw
}

// sum adds the smoothed (and, when withRaw, the exact) terms of the live
// slots in ascending slot order.
func (e *energyModel) sum(p *partition.P, live []uint64, withRaw bool) (smoothed, raw float64) {
	for w, word := range live {
		for ; word != 0; word &= word - 1 {
			a := w<<6 + bits.TrailingZeros64(word)
			cut, in := p.PartCut(a), p.PartInternalOrdered(a)
			smoothed += e.obj.Term(cut, in, e.eps)
			if withRaw {
				raw += e.obj.Term(cut, in, 0)
			}
		}
	}
	return smoothed, raw
}

// raw returns the unscaled, unsmoothed objective (for reporting).
func (e *energyModel) raw(p *partition.P) float64 {
	return e.obj.Evaluate(p)
}

// moveDelta returns the change of the scaled energy if the vertex c last
// gathered moved from its part `from` to part `to`, in O(1), without
// mutating p. The move must not empty `from` (the part count, and hence
// the binding-energy penalty, stays constant).
func (e *energyModel) moveDelta(p *partition.P, c *score.Conns, from, to int) float64 {
	return c.Delta(p, e.obj, e.eps, from, to) * e.penalty(p.NumParts())
}
