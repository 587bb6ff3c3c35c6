// Package antcolony implements the paper's ant-colony adaptation to k-way
// partitioning (section 3.2): k colonies — one per part — compete for food.
// Each colony lays its own pheromone on edges (an ant only senses its own
// colony's trails); a vertex is owned by the colony whose pheromone on the
// vertex's incident edges is strongest; a local heuristic pushes ants toward
// unexplored edges; trails evaporate over time; and ants from different
// colonies may stand on the same vertex, so part connectivity is never
// forced. Vertex food is the weighted degree, as the paper suggests.
//
// The paper's tunable parameters (alpha, beta, rho and the ants per colony)
// are fixed constants of this package. The search is seeded with the
// percolation partition (figure 1 starts the ant colony from the
// percolation result).
package antcolony

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/percolation"
	"repro/internal/refine"
	"repro/internal/rng"
	"repro/internal/score"
)

// Options configures the colony search.
type Options struct {
	// Objective is the energy function (default MCut).
	Objective objective.Objective
	// Iterations caps the number of colony iterations (default 4000).
	Iterations int
	// Budget caps wall-clock time; 0 means no limit.
	Budget time.Duration
	// Seed drives all randomness.
	Seed int64
	// Initial optionally provides a starting partition; when nil,
	// percolation is run.
	Initial *partition.P
	// Runtime optionally attaches the run to a portfolio worker slot and
	// the live-progress monitor. The search never adopts another worker's
	// incumbent, so a portfolio of it is independent restarts. Nil for
	// standalone runs.
	Runtime *engine.Runtime
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 4000
	}
	return o
}

// TracePoint records the best energy seen at a point in time, for Figure 1.
type TracePoint = engine.TracePoint

// Result is the outcome of the colony search.
type Result struct {
	Best       *partition.P
	Energy     float64
	Iterations int
	Trace      []TracePoint
	// Cancelled reports that the run was interrupted by context
	// cancellation and Best is the best partition found so far.
	Cancelled bool
}

const (
	tau0        = 0.05 // baseline pheromone presence in the transition rule
	exploreTau  = 0.02 // below this own-colony pheromone an edge counts as unexplored
	exploreGain = 3.0  // attraction multiplier for unexplored edges
	depositQ    = 0.25 // pheromone laid per visited vertex, scaled by food
	eliteQ      = 0.5  // bonus laid on internal edges of a new best partition

	// The paper's tuning parameters, typed so that constant arithmetic
	// rounds to float64 exactly as run-time arithmetic does.
	alpha float64 = 1    // weight of pheromone in the transition rule
	beta  float64 = 2    // weight of the edge-weight heuristic
	rho   float64 = 0.05 // evaporation rate, in (0,1)
	// antsPerColony is the number of ants each colony deploys per iteration.
	antsPerColony = 4
	// walkLength is the number of steps each ant takes.
	walkLength = 10
	// daemonPeriod is how often (in iterations) the centralized daemon
	// action runs — the optional third ACO step of section 3.2, here one
	// greedy boundary-refinement pass whose result is reinforced with
	// pheromone.
	daemonPeriod = 20
)

// Partition runs the competing-colonies search and returns the best
// partition found.
func Partition(g *graph.Graph, k int, opt Options) (*Result, error) {
	return PartitionContext(context.Background(), g, k, opt)
}

// PartitionContext is Partition under cooperative cancellation: the colony
// loop polls ctx every iteration alongside its budget check and, once ctx
// fires, returns the best partition found so far with Result.Cancelled set.
// A context that is done before any solution exists yields (nil, ctx.Err()).
func PartitionContext(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := g.NumVertices()
	if k < 2 || k > n {
		return nil, fmt.Errorf("antcolony: k=%d out of range [2,%d]", k, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := rng.New(opt.Seed)

	init := opt.Initial
	if init == nil {
		p, err := percolation.PartitionContext(ctx, g, k, percolation.Options{Seed: opt.Seed})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("antcolony: percolation initialization: %w", err)
		}
		init = p
	}
	if init.Graph() != g {
		return nil, fmt.Errorf("antcolony: initial partition is for a different graph")
	}

	m := g.NumEdges()
	// Flat pheromone field, indexed tau[e*k+c]: the k colony values of one
	// edge are contiguous, so the ownership scan (k sums over each vertex's
	// incident edges) walks consecutive memory instead of striding m floats
	// between colonies. Per-colony float accumulation order is everywhere
	// preserved, so the layout change is bit-identical.
	tau := make([]float64, m*k)
	// Seed pheromone along the internal edges of the initial partition.
	owner := make([]int32, n)
	copy(owner, init.Assignment())
	g.ForEachEdgeID(func(eid, u, v int, w float64) {
		if owner[u] == owner[v] && owner[u] >= 0 {
			tau[eid*k+int(owner[u])] = 0.5
		}
	})

	maxWDeg := 0.0
	maxW := 0.0
	for v := 0; v < n; v++ {
		if d := g.WeightedDegree(v); d > maxWDeg {
			maxWDeg = d
		}
	}
	g.ForEachEdge(func(u, v int, w float64) {
		if w > maxW {
			maxW = w
		}
	})
	if maxWDeg == 0 {
		maxWDeg = 1
	}
	if maxW == 0 {
		maxW = 1
	}

	eps := 1e-6 * (2 * g.TotalEdgeWeight() / float64(n))

	// Soft balance cap (see anneal): plain Cut would otherwise collapse the
	// ownership into one giant colony.
	capFactor := 2.0
	if opt.Objective == objective.Cut {
		capFactor = 1.3
	}
	maxPartVW := capFactor * g.TotalVertexWeight() / float64(k)

	cur := init.Clone()
	best := init.Clone()
	// Ownership moves flow through the tracker, so the smoothed objective
	// of the current ownership is an O(1) read per iteration instead of a
	// per-part scan.
	tr := score.NewTracker(cur, opt.Objective, eps)
	bestE := tr.Value()
	loop := engine.NewLoop(ctx, engine.LoopOptions{
		Budget: opt.Budget, MaxSteps: opt.Iterations,
		PollEvery: 1, BudgetEvery: 8, ProgressEvery: 1,
		Runtime: opt.Runtime,
	})
	loop.Improved(bestE, best.Compact)
	probs := make([]float64, 0, 64)
	colonySums := make([]float64, k) // reassignByPheromone scratch

	for loop.Next() {
		// March the ants.
		for c := 0; c < k; c++ {
			territory := cur.VerticesOf(c)
			for a := 0; a < antsPerColony; a++ {
				var at int
				if len(territory) > 0 {
					at = int(territory[r.Intn(len(territory))])
				} else {
					at = r.Intn(n) // colony dispossessed: scout anywhere
				}
				for step := 0; step < walkLength; step++ {
					nbrs := g.Neighbors(at)
					if len(nbrs) == 0 {
						break
					}
					wts := g.Weights(at)
					eids := g.ArcEdgeIDs(at)
					probs = probs[:0]
					for i := range nbrs {
						ph := tau[int(eids[i])*k+c]
						attract := math.Pow(ph+tau0, alpha) *
							math.Pow(wts[i]/maxW+0.1, beta)
						if ph < exploreTau {
							attract *= exploreGain // the paper's exploration heuristic
						}
						probs = append(probs, attract)
					}
					pick := rng.WeightedChoice(r, probs)
					if pick < 0 {
						break
					}
					next := int(nbrs[pick])
					// Food at the destination: its weighted degree.
					food := g.WeightedDegree(next) / maxWDeg
					tau[int(eids[pick])*k+c] += depositQ * food
					at = next
				}
			}
		}
		// Evaporate. Element-wise scaling is order-independent, so one pass
		// over the flat field matches the old per-colony loops exactly.
		for i := range tau {
			tau[i] *= 1 - rho
		}
		// Ownership: strongest incident pheromone wins; ties keep owner.
		reassignByPheromone(g, tau, k, colonySums, tr, maxPartVW)
		// Centralized daemon action (the optional third step of section
		// 3.2): periodically smooth the ownership boundary with one greedy
		// refinement pass and lay pheromone along the improved interior so
		// the colonies retain it.
		if (loop.Steps()-1)%daemonPeriod == daemonPeriod-1 {
			refine.KWay(cur, refine.KWayOptions{
				Objective: opt.Objective, MaxPasses: 1, Imbalance: capFactor - 1, Ctx: ctx,
			})
			tr.Rebuild() // the refinement pass mutated cur behind the tracker
			g.ForEachEdgeID(func(eid, u, v int, w float64) {
				if a := cur.Part(u); a == cur.Part(v) {
					tau[eid*k+a] += depositQ
				}
			})
		}
		if e := tr.Value(); e < bestE && cur.NumParts() == k {
			bestE = e
			best.CopyFrom(cur)
			loop.Improved(bestE, best.Compact)
			// Elitist reinforcement of the new best partition's interior.
			g.ForEachEdgeID(func(eid, u, v int, w float64) {
				if a := best.Part(u); a == best.Part(v) {
					tau[eid*k+a] += eliteQ
				}
			})
		}
	}
	loop.Finish()
	loop.Mark(bestE)
	return &Result{Best: best, Energy: opt.Objective.Evaluate(best), Iterations: loop.Steps(), Trace: loop.Trace(), Cancelled: loop.Cancelled()}, nil
}

// reassignByPheromone recomputes vertex ownership from the pheromone fields,
// committing each move through the tracker so the running objective stays
// current. A move that would empty a part or push the receiving colony past
// the balance cap is skipped so every colony keeps a foothold (k stays
// fixed, as Table 1 requires) and no colony swallows the graph.
func reassignByPheromone(g *graph.Graph, tau []float64, k int, sums []float64, tr *score.Tracker, maxPartVW float64) {
	cur := tr.Partition()
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		eids := g.ArcEdgeIDs(v)
		// One pass over the incident edges accumulates all k colony sums
		// from contiguous k-wide rows of the flat field. Each colony's
		// terms are still added in incident-edge order, so every sum is
		// bit-identical to the former per-colony loops.
		for c := range sums {
			sums[c] = 0
		}
		for _, e := range eids {
			row := tau[int(e)*k : int(e)*k+k]
			for c, ph := range row {
				sums[c] += ph
			}
		}
		bestC := int32(cur.Part(v))
		bestS := sums[bestC]
		for c := 0; c < k; c++ {
			if c == int(bestC) {
				continue
			}
			if sums[c] > bestS {
				bestC, bestS = int32(c), sums[c]
			}
		}
		if int(bestC) != cur.Part(v) && cur.PartSize(cur.Part(v)) > 1 &&
			cur.PartVertexWeight(int(bestC))+g.VertexWeight(v) <= maxPartVW {
			tr.Apply(v, int(bestC))
		}
	}
}
