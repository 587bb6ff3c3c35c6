// Package vcycle accelerates the metaheuristics with a multilevel V-cycle,
// the single biggest quality-per-second lever the memetic-multilevel line of
// work (Andre/Schlag/Schulz; Sanders/Schulz, KaFFPaE) established for
// evolutionary partitioning: coarsen the graph with heavy-edge matching,
// run the expensive search on the small coarsest graph where every step is
// cheap and moves are global, then project the partition up level by level
// with budgeted greedy refinement at each step.
//
// The driver is solver-agnostic: any engine-backed metaheuristic
// (fusion-fission, simulated annealing, genetic, ant colony) plugs in as a
// CoarseSolve callback. Because package coarsen folds contracted-edge weight
// into coarse-vertex self-loops and package partition counts those loops as
// internal weight, the objective the solver optimizes on the coarsest graph
// is exactly the fine graph's objective — not an approximation of it.
//
// The hierarchy is a coarsen.Hierarchy, built by Build under the cutoff
// rule coarsen.Cutoff that the memetic recombination uses too.
//
// Portfolios compose: each worker of an engine.Portfolio runs its own
// V-cycle over one shared hierarchy, and workers exchange incumbents at
// level boundaries (engine.Runtime.Exchange) — the phase transitions where
// all workers hold partitions of the same graph — rather than at step
// indices inside the coarsest solve. Step-capped runs visit the same
// boundaries in the same order on every worker, so a (seed, parallelism,
// hierarchy) triple is exactly reproducible.
package vcycle

import (
	"context"
	"fmt"
	"time"

	"repro/internal/coarsen"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/refine"
)

// Hierarchy names coarsen.Hierarchy, the ladder Build returns, for callers
// that hold one.
type Hierarchy = coarsen.Hierarchy

// Build coarsens g by repeated heavy-edge matching down to
// coarsen.Cutoff(coarsenTo, k) vertices. Coarsening polls ctx at every
// level and returns ctx.Err() once it fires, so a cancelled job never burns
// CPU building a ladder nobody will use.
func Build(ctx context.Context, g *graph.Graph, coarsenTo, k int, seed int64) (*coarsen.Hierarchy, error) {
	return coarsen.HEMContext(ctx, g, coarsen.Cutoff(coarsenTo, k), seed)
}

// Stats describes the shape of a hierarchy; the facade reports it so
// callers can see what the V-cycle actually did.
type Stats struct {
	// Levels is the number of coarsening contractions performed.
	Levels int `json:"levels"`
	// CoarsestVertices and CoarsestEdges size the graph the metaheuristic
	// searched.
	CoarsestVertices int `json:"coarsest_vertices"`
	CoarsestEdges    int `json:"coarsest_edges"`
	// VertexCounts lists the vertex count per level, finest (the input
	// graph) first, coarsest last; length Levels+1.
	VertexCounts []int `json:"vertex_counts"`
}

// StatsOf summarizes the hierarchy's shape.
func StatsOf(h *coarsen.Hierarchy) Stats {
	s := Stats{
		Levels:           len(h.Levels),
		CoarsestVertices: h.Coarsest().NumVertices(),
		CoarsestEdges:    h.Coarsest().NumEdges(),
		VertexCounts:     make([]int, 0, len(h.Levels)+1),
	}
	s.VertexCounts = append(s.VertexCounts, h.Fine.NumVertices())
	for _, l := range h.Levels {
		s.VertexCounts = append(s.VertexCounts, l.G.NumVertices())
	}
	return s
}

// CoarseSolve runs one metaheuristic on the coarsest graph of a V-cycle.
// budget is the wall-clock share the driver grants the solve (0 = no time
// limit); rt is a monitor-only runtime (engine.Runtime.Solo) the solver
// should attach to its Loop for live progress, or nil. The returned partial
// flag is the solver's own record of a context interruption.
type CoarseSolve func(ctx context.Context, g *graph.Graph, k int, budget time.Duration, rt *engine.Runtime) (*partition.P, bool, error)

// Options configures one V-cycle run.
type Options struct {
	// Objective is the criterion refinement improves and boundary exchanges
	// compare on (default MCut, like everywhere in this repository).
	Objective objective.Objective
	// Budget caps the whole V-cycle's wall-clock time; the coarsest solve
	// receives solveFraction of it and uncoarsening refinement runs under a
	// deadline at the full budget. 0 means no time limit (step-capped runs).
	Budget time.Duration
	// Runtime optionally attaches the run to an engine portfolio worker
	// slot: live progress flows from the coarsest solve, and incumbents are
	// exchanged at level boundaries. Nil for standalone runs.
	Runtime *engine.Runtime
}

// solveFraction is the share of the budget the coarsest solve receives; the
// remainder bounds the uncoarsening refinement, which is cheap (a few
// pass-capped greedy sweeps per level) but must not run unbounded on huge
// fine graphs.
const solveFraction = 0.8

// Per-level refinement: the balance slack it respects and the greedy k-way
// sweeps it runs at most.
const (
	refineImbalance float64 = 0.10
	refinePasses            = 4
)

// Run executes one V-cycle over h: solve the coarsest graph, then project
// the partition up level by level, refining at each. It returns the final
// fine-graph partition; partial reports that ctx interrupted the run and
// the partition is best-effort. Cancellation is cooperative throughout —
// the coarsest solver polls at its step cadence, refinement at sweep
// boundaries — and a run interrupted mid-hierarchy still returns a valid
// k-way partition of the fine graph.
func Run(ctx context.Context, h *coarsen.Hierarchy, k int, opt Options, solve CoarseSolve) (*partition.P, bool, error) {
	// The refinement phase honours the overall budget through a derived
	// deadline; hitting it is a budget-bounded completion, not a
	// cancellation, so partial tracks the parent context alone.
	rctx, cancel := ctx, context.CancelFunc(func() {})
	coarseBudget := time.Duration(0)
	if opt.Budget > 0 {
		coarseBudget = time.Duration(float64(opt.Budget) * solveFraction)
		if len(h.Levels) == 0 {
			// Nothing to refine: the solve IS the whole run, so reserving
			// refinement time would just leave budget unspent.
			coarseBudget = opt.Budget
		}
		rctx, cancel = context.WithTimeout(ctx, opt.Budget)
	}
	defer cancel()

	cp, _, err := solve(rctx, h.Coarsest(), k, coarseBudget, opt.Runtime.Solo())
	if err != nil {
		return nil, false, err
	}
	assign := cp.Compact()
	energy := opt.Objective.Evaluate(cp)

	// fp is the current level's refined partition; after the li == 0
	// iteration it is the fine-graph result itself.
	var fp *partition.P
	for li := len(h.Levels) - 1; li >= 0; li-- {
		// Level boundary: trade incumbents with the other portfolio workers
		// before spending refinement effort — a strictly better partition of
		// the same graph found elsewhere is a strictly better starting point.
		assign, energy = exchange(opt.Runtime, assign, energy)
		assign = h.Levels[li].Project(assign)

		fp, err = partition.FromAssignment(h.GraphAt(li), assign, k)
		if err != nil {
			return nil, false, fmt.Errorf("vcycle: projecting level %d: %w", li, err)
		}
		refine.KWay(fp, refine.KWayOptions{
			Objective: opt.Objective,
			Imbalance: refineImbalance,
			MaxPasses: refinePasses,
			Ctx:       rctx,
		})
		assign = fp.Assignment()
		energy = opt.Objective.Evaluate(fp)
		if rt := opt.Runtime; rt != nil && rt.Monitor != nil {
			rt.Monitor.Offer(energy, func() []int32 { return fp.Compact() })
		}
	}

	if fp == nil { // no coarsening happened: the coarse solve was the solve
		if fp, err = partition.FromAssignment(h.Fine, assign, k); err != nil {
			return nil, false, fmt.Errorf("vcycle: final assembly: %w", err)
		}
	}
	return fp, ctx.Err() != nil, nil
}

// exchange deposits the worker's current (assignment, energy) and adopts the
// round winner if it strictly improves the objective, returning the possibly
// updated pair. Winners are commensurate because every worker reaches this
// boundary holding a partition of the same graph under the same objective.
// The length guard skips winners deposited for a different level by a worker
// that left its final slot behind — reachable only through an internal
// invariant break, since a V-cycle worker cannot fail after its first
// deposit; if it ever happens, the round degrades to no adoption (exchanger
// slots persist by design for the flat step-cadence path) and every worker
// simply keeps its own partition.
func exchange(rt *engine.Runtime, assign []int32, energy float64) ([]int32, float64) {
	foreign, fe, ok := rt.Exchange(energy, func() []int32 { return assign })
	if ok && len(foreign) == len(assign) {
		return foreign, fe
	}
	return assign, energy
}
