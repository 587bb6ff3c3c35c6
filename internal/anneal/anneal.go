// Package anneal implements the paper's simulated-annealing adaptation to
// graph partitioning (section 3.1).
//
// The perturbation follows the paper exactly: a random vertex is moved to
// another part — at high temperature, to the part with the lowest internal
// weight (feeding the starving part); at low temperature, to a random
// *connected* part. Connectivity of parts is never forced. Uphill moves are
// accepted with the Boltzmann probability exp((e(s)-e(s'))/T); equilibrium
// is declared after a fixed number of refused moves, at which point the
// temperature is decreased; the search stops at the freezing point.
//
// The paper's printed cooling schedule D(T) = T*(tmax-tmin)/tmax is a no-op
// for its own experimental setting tmin = 0, so the intended monotone
// geometric schedule T <- coolRatio*T is used (documented deviation; see
// DESIGN.md). The starting temperature is scaled to the objective's move
// magnitude from a probe of random moves; the cooling schedule is fixed.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/fastmath"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/percolation"
	"repro/internal/rng"
	"repro/internal/score"
)

// The fixed cooling schedule. Typed, so constant arithmetic rounds to
// float64 exactly as run-time arithmetic does.
const (
	// coolRatio is the geometric cooling factor.
	coolRatio float64 = 0.97
	// refusalLimit is the number of refused moves that declares equilibrium
	// at the current temperature.
	refusalLimit = 48
	// highTempFraction: above tMax*highTempFraction the perturbation targets
	// the lowest-internal-weight part.
	highTempFraction float64 = 0.5
)

// Options configures the annealer.
type Options struct {
	// Objective is the energy function (default MCut, the ATC objective).
	Objective objective.Objective
	// MaxSteps caps the number of proposed moves (default 200k).
	MaxSteps int
	// Budget caps wall-clock time; 0 means no time limit.
	Budget time.Duration
	// Seed drives all randomness.
	Seed int64
	// Initial optionally provides a starting partition (the paper starts
	// SA from the percolation result); when nil, percolation is run.
	Initial *partition.P
	// Runtime optionally attaches the run to a shared engine runtime — the
	// portfolio incumbent exchange and the live-progress monitor. Nil for
	// standalone runs.
	Runtime *engine.Runtime
}

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 200_000
	}
	return o
}

// TracePoint records the best energy seen at a point in time, for Figure 1.
type TracePoint = engine.TracePoint

// Result is the annealing outcome.
type Result struct {
	Best   *partition.P
	Energy float64
	Steps  int
	Trace  []TracePoint
	// Cancelled reports that the run was interrupted by context
	// cancellation and Best is the best partition found so far.
	Cancelled bool
}

// Partition anneals a k-way partition of g.
func Partition(g *graph.Graph, k int, opt Options) (*Result, error) {
	return PartitionContext(context.Background(), g, k, opt)
}

// PartitionContext is Partition under cooperative cancellation: the move
// loop polls ctx alongside its budget check and, once ctx fires, returns the
// best partition found so far with Result.Cancelled set. A context that is
// done before any solution exists yields (nil, ctx.Err()).
func PartitionContext(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := g.NumVertices()
	if k < 2 || k > n {
		return nil, fmt.Errorf("anneal: k=%d out of range [2,%d]", k, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := rng.New(opt.Seed)

	cur := opt.Initial
	if cur == nil {
		p, err := percolation.PartitionContext(ctx, g, k, percolation.Options{Seed: opt.Seed})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("anneal: percolation initialization: %w", err)
		}
		cur = p
	} else {
		cur = cur.Clone()
	}
	if cur.Graph() != g {
		return nil, fmt.Errorf("anneal: initial partition is for a different graph")
	}

	// The tracker scores every Metropolis proposal in O(deg v) (MoveDelta)
	// and keeps the running smoothed objective in O(1) (Value), so the move
	// loop never pays a full per-part evaluation.
	eps := smoothingEps(g)
	tr := score.NewTracker(cur, opt.Objective, eps)
	curE := tr.Value()
	best := cur.Clone()
	bestE := curE
	// The budget clock starts after the percolation initialization, as
	// before the engine refactor; the auto-temperature probe below counts
	// against it.
	loop := engine.NewLoop(ctx, engine.LoopOptions{
		Budget: opt.Budget, MaxSteps: opt.MaxSteps,
		PollEvery: 256, BudgetEvery: 256,
		Runtime: opt.Runtime,
	})
	loop.Improved(bestE, best.Compact)

	// The starting temperature is scaled to the objective's move magnitude
	// (the paper tunes tmax by hand per run; an absolute value cannot fit
	// Cut's ~1e3 deltas and Ncut's ~1e-2 deltas at the same time). The
	// paper freezes at 0 with a step budget; we freeze a little above it to
	// terminate.
	tMax := autoTemperature(tr, opt.Objective, eps, r)
	tMin := tMax / 1e4

	// Soft balance cap, mirroring fusion-fission: Ncut/Mcut self-balance
	// through their denominators, plain Cut does not — without a cap the
	// minimum-Cut k-partition collapses into one giant part plus slivers.
	capFactor := 2.0
	if opt.Objective == objective.Cut {
		capFactor = 1.3
	}
	maxPartVW := capFactor * g.TotalVertexWeight() / float64(k)
	// Unit vertex weights let the balance check use the constant 1.0 instead
	// of a random 8-byte load per proposal (bit-identical; see graph docs).
	unitVW := g.UnitVertexWeights()

	t := tMax
	// invT and hot are pure functions of t, recomputed only when it changes
	// (cooling, freezing restart): the Metropolis test multiplies by the
	// reciprocal instead of dividing, and the hot/cold phase branch — a float
	// compare whose outcome flips a handful of times per run — moves out of
	// the per-proposal path entirely.
	invT := 1 / t
	hot := hotPhase(t, tMax)
	refused := 0
	// Reusable candidate scratch for chooseTarget (same timestamp-mark
	// pattern as refine.KWay): the cold-phase target draw runs once per
	// proposal, and a per-proposal map allocation would dominate now that
	// the evaluation itself is O(deg).
	scratch := &targetScratch{mark: make([]int64, cur.Capacity())}
	// Proposal vertices are drawn batchSize at a time into a fixed buffer
	// from a dedicated splitmix64 stream seeded off the main generator: the
	// refill runs a tight register-resident loop of three xor-multiply
	// rounds per draw instead of re-entering math/rand between every
	// adjacency scan. The refill point depends only on the step index and
	// n, so the vertex stream is a pure function of the run seed.
	prop := rng.NewSplitmix(r.Uint64())
	var batch [proposalBatchSize]int32
	batchPos := proposalBatchSize
	for loop.Next() {
		// A portfolio peer's strictly better incumbent (delivered at the
		// step-indexed exchange that just ran inside Next) replaces the
		// current state at the current temperature — annealing continues
		// from the better solution. Consuming it here, not at the freezing
		// restart, keeps step-capped runs (Budget 0, one cooling cycle)
		// cooperating too.
		if p, ok := adoptForeign(loop, g, cur, bestE); ok {
			cur = p
			tr = score.NewTracker(cur, opt.Objective, eps)
			curE = tr.Value()
			if curE < bestE {
				bestE = curE
				best.CopyFrom(cur)
				loop.Improved(bestE, best.Compact)
			}
		}
		if t <= tMin {
			if opt.Budget <= 0 {
				break // no time budget: one annealing cycle, as printed
			}
			// The paper notes metaheuristics "can run infinitely": with a
			// time budget, freezing restarts the annealing from the best
			// solution at full temperature. CopyFrom bypasses the tracker,
			// so resync it.
			cur.CopyFrom(best)
			tr.Rebuild()
			curE = tr.Value()
			t = tMax
			invT = 1 / t
			hot = hotPhase(t, tMax)
			refused = 0
		}
		if batchPos == proposalBatchSize {
			for i := range batch {
				batch[i] = int32(prop.Intn(n))
			}
			batchPos = 0
		}
		v := int(batch[batchPos])
		batchPos++
		from := cur.Part(v)
		if cur.PartSize(from) <= 1 {
			continue // never empty a part: k is fixed for SA
		}
		// chooseTarget's two branches, with the phase test hoisted to the
		// temperature updates and the hot branch reusing the `from` already
		// in hand (chooseTarget reloads Part(v); same value by definition).
		var to int
		if hot {
			to = cur.MinInternalPart(from)
		} else {
			to = coldTarget(cur, v, scratch, r)
		}
		if to < 0 || to == from {
			continue
		}
		vw := 1.0
		if !unitVW {
			vw = g.VertexWeight(v)
		}
		if cur.PartVertexWeight(to)+vw > maxPartVW {
			continue
		}
		// One O(deg v) delta replaces the old Move + full smoothed
		// evaluation + un-Move; a refused proposal now costs no mutation
		// at all.
		delta := tr.MoveDelta(v, from, to)
		accept := delta <= 0
		if !accept {
			// Boltzmann: exp((e(s)-e(s'))/T) vs uniform draw, both from the
			// proposal stream — the uphill test runs nearly every hot-phase
			// step, so it shares the cheap generator with the vertex draw.
			accept = prop.Float64() < boltzmann(-delta, invT)
		}
		if accept {
			tr.Apply(v, to)
			curE = tr.Value()
			if curE < bestE {
				bestE = curE
				best.CopyFrom(cur)
				loop.Improved(bestE, best.Compact)
			}
		} else {
			refused++
			if refused >= refusalLimit {
				t *= coolRatio // equilibrium reached: cool
				invT = 1 / t
				hot = hotPhase(t, tMax)
				refused = 0
			}
		}
	}
	loop.Finish()
	loop.Mark(bestE)
	return &Result{Best: best, Energy: opt.Objective.Evaluate(best), Steps: loop.Steps(), Trace: loop.Trace(), Cancelled: loop.Cancelled()}, nil
}

// adoptForeign reconstructs a portfolio peer's incumbent when it strictly
// beats this worker's best energy.
func adoptForeign(loop *engine.Loop, g *graph.Graph, cur *partition.P, bestE float64) (*partition.P, bool) {
	assign, e, ok := loop.Foreign()
	if !ok || e >= bestE {
		return nil, false
	}
	p, err := partition.FromAssignment(g, assign, cur.Capacity())
	if err != nil {
		return nil, false
	}
	return p, true
}

// targetScratch is chooseTarget's reusable candidate-dedup storage:
// mark[b] == stamp means part b was already collected for the current
// proposal, so no per-proposal map or slice is allocated.
type targetScratch struct {
	mark  []int64
	stamp int64
	cands []int
}

// chooseTarget picks the destination part per the paper: the
// lowest-internal-weight part when hot, a random connected part when cold.
// Both branches are allocation-free: the hot target is the partition's
// incrementally-maintained argmin (same lowest-W, lowest-id ordering as the
// former NonEmptyParts scan, without the per-proposal slice allocation and
// O(k) PartInternalOrdered sweep), and the cold draw reuses the
// timestamp-mark scratch.
func chooseTarget(p *partition.P, v int, t, tMax float64, s *targetScratch, r *rand.Rand) int {
	if hotPhase(t, tMax) {
		return p.MinInternalPart(p.Part(v))
	}
	return coldTarget(p, v, s, r)
}

// hotPhase reports whether temperature t selects the high-temperature
// "feed the starving part" target. The Metropolis loop evaluates it only
// when t changes; chooseTarget keeps it inline for per-call users.
func hotPhase(t, tMax float64) bool {
	return t > tMax*highTempFraction
}

// coldTarget draws a random part among those v is connected to — the
// low-temperature branch of chooseTarget.
func coldTarget(p *partition.P, v int, s *targetScratch, r *rand.Rand) int {
	// Random part among those v is connected to. The neighbor scan reads
	// the int16 assignment mirror when one exists — same reasoning as the
	// scoring scan: half the footprint, no per-read accessor branch.
	s.stamp++
	stamp := s.stamp
	mark := s.mark
	cands := s.cands[:0]
	mark[p.Part(v)] = stamp
	nbrs := p.Graph().Neighbors(v)
	if pv := p.PartView16(); pv != nil && len(mark) > 0 {
		// Adjacency entries index vertices and assigned parts index mark by
		// construction, so both lookups skip the bound checks the compiler
		// cannot prove away (see score.moveConns for the same pattern).
		pp := unsafe.Pointer(&pv[0])
		mp := unsafe.Pointer(&mark[0])
		for _, u := range nbrs {
			b := int(*(*int16)(unsafe.Add(pp, uintptr(uint32(u))*2)))
			if b != partition.Unassigned {
				mb := (*int64)(unsafe.Add(mp, uintptr(uint32(b))*8))
				if *mb != stamp {
					*mb = stamp
					cands = append(cands, b)
				}
			}
		}
	} else {
		for _, u := range nbrs {
			b := p.Part(int(u))
			if b != partition.Unassigned && mark[b] != stamp {
				mark[b] = stamp
				cands = append(cands, b)
			}
		}
	}
	s.cands = cands
	if len(cands) == 0 {
		return -1
	}
	return cands[r.Intn(len(cands))]
}

// proposalBatchSize is how many proposal vertices each RNG refill draws.
// One batch of int32 ids is a single cache line, large enough to amortize
// the refill branch. The size is part of the RNG schedule: changing it
// changes trajectories.
const proposalBatchSize = 64

// boltzmann evaluates the Metropolis acceptance probability exp(deltaNeg/T)
// from the reciprocal temperature: callers precompute invT = 1/t when the
// temperature changes, so the near-every-step uphill test multiplies instead
// of paying a float division.
func boltzmann(deltaNeg, invT float64) float64 {
	x := deltaNeg * invT // negative for uphill moves
	if !(x > -700) {
		return 0 // underflow clamp; also rejects NaN (t <= 0 or frozen)
	}
	// fastmath.Exp: same clamped range, a few 1e-12 relative of math.Exp.
	return fastmath.Exp(x)
}

// autoTemperature estimates the typical |energy delta| of a random move by
// probing trial moves (score.Tracker.MoveDelta: no mutation, no full
// re-evaluation) and returns half the *median* magnitude: warm enough to
// accept mild uphill moves, cold enough that the search behaves like
// descent with perturbations. The median (not the mean) matters because
// degenerate seed partitions produce a few enormous deltas that would
// otherwise turn the whole run into a random walk. This stands in for the
// paper's per-run hand tuning of tmax. The probe buffer is a fixed-size
// stack array, so the estimate allocates nothing.
func autoTemperature(tr *score.Tracker, obj objective.Objective, eps float64, r *rand.Rand) float64 {
	cur := tr.Partition()
	g := cur.Graph()
	n := g.NumVertices()
	var deltas [96]float64
	count := 0
	for attempt := 0; attempt < 300 && count < len(deltas); attempt++ {
		v := r.Intn(n)
		from := cur.Part(v)
		if cur.PartSize(from) <= 1 {
			continue
		}
		to := -1
		for _, u := range g.Neighbors(v) {
			if b := cur.Part(int(u)); b != from && b != partition.Unassigned {
				to = b
				break
			}
		}
		if to < 0 {
			continue
		}
		d := tr.MoveDelta(v, from, to)
		if d < 0 {
			d = -d
		}
		if d > 0 {
			deltas[count] = d
			count++
		}
	}
	if count == 0 {
		return fallbackTemperature(cur, obj, eps)
	}
	ds := deltas[:count]
	sort.Float64s(ds)
	return 0.5 * ds[count/2]
}

// fallbackTemperature stands in when every probe came back delta-free —
// parts that are whole components, zero-delta grids, tiny parts. The old
// literal 1.0 was scale-blind: Cut deltas on the paper instances are ~1e3
// while Ncut's are ~1e-2, so the same constant was glacial for one
// objective and a random walk for the other. Instead, perturb the mean
// part's cut by one mean weighted degree — the objective's own Term reports
// what such a typical single-vertex move would cost at this graph's scale —
// and warm to half of that, mirroring the median path.
func fallbackTemperature(cur *partition.P, obj objective.Objective, eps float64) float64 {
	g := cur.Graph()
	n := g.NumVertices()
	if n == 0 {
		return smallestTemperature
	}
	meanWDeg := 2 * g.TotalEdgeWeight() / float64(n)
	var cut, w float64
	parts := 0
	for a := 0; a < cur.Capacity(); a++ {
		if cur.PartSize(a) == 0 {
			continue
		}
		cut += cur.PartCut(a)
		w += cur.PartInternalOrdered(a)
		parts++
	}
	if parts > 0 {
		cut /= float64(parts)
		w /= float64(parts)
	}
	scale := math.Abs(obj.Term(cut+meanWDeg, w, eps) - obj.Term(cut, w, eps))
	if !(scale > 0) { // degenerate (edgeless, Inf or NaN terms): fall to eps
		scale = eps
	}
	if !(scale > 0) {
		return smallestTemperature
	}
	return 0.5 * scale
}

// smallestTemperature is the floor of the derived fallback: a weightless
// graph has no objective scale at all, and any positive temperature keeps
// the schedule well-formed (tMin = tMax/1e4 > 0, Boltzmann finite).
const smallestTemperature = 1e-12

// smoothingEps returns a smoothing epsilon small relative to the mean
// weighted degree, keeping Mcut finite for degenerate intermediate states.
func smoothingEps(g *graph.Graph) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 1e-9
	}
	return 1e-6 * (2 * g.TotalEdgeWeight() / float64(n))
}
