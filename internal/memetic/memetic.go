// Package memetic implements the multilevel recombination operator of
// KaHyPar-style memetic partitioning (Andre, Schlag & Schulz, Memetic
// Multilevel Hypergraph Partitioning): two parent partitions are combined by
// a V-cycle whose coarsening is forbidden from contracting any edge cut by
// either parent, so both parents' cut structures survive intact to the
// coarsest graph. The coarsest partition is seeded from the fitter parent
// (projection is exact — package coarsen folds contracted-edge weight into
// self-loops, so coarse objectives equal fine objectives), and greedy k-way
// refinement on the way back up picks the best pieces of each parent along
// the preserved boundaries.
//
// The operator carries a floor guarantee: the offspring is never worse than
// the better parent under the target objective. It holds by construction —
// the seed projects the fitter parent exactly and refine.KWay only commits
// strictly improving moves — and is enforced explicitly as a final guard
// (the same repair discipline as the facade's warm-start path), so even a
// run cancelled mid-hierarchy returns a valid offspring at or below the
// better parent's energy.
//
// Determinism: one (graph, k, parents, seed) tuple yields one offspring,
// bit for bit. The protected matcher is bit-identical for any speculative
// worker count, refinement is serial, and the fitter-parent tie breaks to
// parent A — so the genetic algorithm's memetic mode stays exactly
// reproducible, portfolios included.
package memetic

import (
	"context"
	"fmt"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/vcycle"
)

// Options configures one recombination.
type Options struct {
	// Objective is the criterion refinement improves and the floor guarantee
	// is stated under (default MCut, like everywhere in this repository).
	Objective objective.Objective
	// CoarsenTo is the protected hierarchy's coarsening cutoff in vertices
	// (0 selects vcycle.DefaultCoarsenTo(k), clamped to at least 2k).
	// Protection usually stops coarsening above the cutoff anyway — the
	// coarsest graph is the overlay of the parents' cuts.
	CoarsenTo int
	// Imbalance is the balance slack refinement respects (default 0.10).
	Imbalance float64
	// Seed drives the protected matcher's vertex-visit order. Same seed and
	// parents, same offspring.
	Seed int64
}

// refinePasses bounds the greedy k-way refinement sweeps per level.
const refinePasses = 4

// Recombine combines two parent assignments of g (labels in [0, k)) into an
// offspring partition by a cut-protecting V-cycle, never worse than the
// better parent under opt.Objective. ctx cancels cooperatively at level
// boundaries and inside refinement sweeps; an interrupted recombination
// still returns a valid offspring honouring the floor unless ctx fired
// before the hierarchy was built (then ctx.Err() is returned).
func Recombine(ctx context.Context, g *graph.Graph, k int, parentA, parentB []int32, opt Options) (*partition.P, error) {
	n := g.NumVertices()
	if k < 2 || k > n {
		return nil, fmt.Errorf("memetic: k=%d out of range [2,%d]", k, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.Imbalance <= 0 {
		opt.Imbalance = 0.10
	}
	pa, err := partition.FromAssignment(g, parentA, k)
	if err != nil {
		return nil, fmt.Errorf("memetic: parent A: %w", err)
	}
	pb, err := partition.FromAssignment(g, parentB, k)
	if err != nil {
		return nil, fmt.Errorf("memetic: parent B: %w", err)
	}
	ea, eb := opt.Objective.Evaluate(pa), opt.Objective.Evaluate(pb)
	fitter, fitterE, fitterIdx := pa, ea, 0
	if eb < ea {
		fitter, fitterE, fitterIdx = pb, eb, 1
	}

	cutoff := opt.CoarsenTo
	if cutoff <= 0 {
		cutoff = vcycle.DefaultCoarsenTo(k)
	}
	if cutoff < 2*k {
		cutoff = 2 * k
	}
	ladder, coarseGuides, err := coarsen.HEMProtected(ctx, g, cutoff, opt.Seed, [][]int32{parentA, parentB})
	if err != nil {
		return nil, err
	}

	// Seed the coarsest graph from the fitter parent. Protection kept every
	// parent-cut edge uncontracted, so this projection carries the fitter
	// parent's exact objective — refinement can only improve on it, and the
	// offspring's moves are free to adopt the other parent's boundaries
	// wherever they score better.
	assign := coarseGuides[fitterIdx]
	coarsest := g
	if len(ladder) > 0 {
		coarsest = ladder[len(ladder)-1].G
	}
	cp, err := partition.FromAssignment(coarsest, assign, k)
	if err != nil {
		return nil, fmt.Errorf("memetic: coarse seed: %w", err)
	}
	refine.KWay(cp, refine.KWayOptions{
		Objective: opt.Objective, Imbalance: opt.Imbalance,
		MaxPasses: refinePasses, Ctx: ctx,
	})
	assign = cp.Assignment()

	// Uncoarsen: project and refine per level, exactly the budgeted V-cycle
	// projection loop. Refinement only commits improving moves and the
	// projection is objective-exact, so the energy is monotone from the
	// fitter parent's value down.
	offspring := cp
	for li := len(ladder) - 1; li >= 0; li-- {
		assign = ladder[li].Project(assign)
		fineG := g
		if li > 0 {
			fineG = ladder[li-1].G
		}
		fp, err := partition.FromAssignment(fineG, assign, k)
		if err != nil {
			return nil, fmt.Errorf("memetic: projecting level %d: %w", li, err)
		}
		refine.KWay(fp, refine.KWayOptions{
			Objective: opt.Objective, Imbalance: opt.Imbalance,
			MaxPasses: refinePasses, Ctx: ctx,
		})
		assign = fp.Assignment()
		offspring = fp
	}

	// The explicit floor guard. Unreachable through the monotone path above,
	// but cheap insurance that no caller ever observes a child worse than
	// its better parent, whatever future refinement grows into.
	if opt.Objective.Evaluate(offspring) > fitterE {
		return fitter, nil
	}
	return offspring, nil
}
