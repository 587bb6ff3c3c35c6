package core

import (
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
// (internal/score): whole-molecule energies delegate to the smoothed
// objective, per-move deltas to score.Delta. The event loop evaluates the
// whole molecule once per event: both() takes the scaled energy and the
// raw objective from one pass over the parts, and the next event's
// "before" energy reuses that value. Measured on the airspace instance,
// the pass is about 3% of the solve, so keeping per-part terms current
// through every fission and merge (a bound score.Tracker) would buy little,
// and it would change the summation order the pinned trajectories depend on.

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

// energy returns the scaled objective of p.
func (e *energyModel) energy(p *partition.P) float64 {
	return e.obj.EvaluateSmoothed(p, e.eps) * e.penalty(p.NumParts())
}

// both returns the scaled energy and the raw objective of p from one pass
// over its parts, bit-identical to energy(p) and raw(p).
func (e *energyModel) both(p *partition.P) (energy, raw float64) {
	smoothed, raw := e.obj.EvaluateBoth(p, e.eps)
	return smoothed * e.penalty(p.NumParts()), raw
}

// raw returns the unscaled, unsmoothed objective (for reporting).
func (e *energyModel) raw(p *partition.P) float64 {
	return e.obj.Evaluate(p)
}

// moveDelta returns the change of the scaled energy if vertex v moved from
// part a to part b, in O(deg v), without mutating p. Both parts must be
// non-empty and the move must not empty a (the part count, and hence the
// binding-energy penalty, stays constant).
func (e *energyModel) moveDelta(p *partition.P, v, a, b int) float64 {
	return score.Delta(p, e.obj, e.eps, v, a, b) * e.penalty(p.NumParts())
}
