// Package genetic implements a genetic-algorithm partitioner, the prior
// metaheuristic family the paper's introduction cites ([28] Talbi-Bessiere,
// [12] Greene) as having been applied to graph partitioning before fusion-
// fission. It is provided as an extension baseline, not a Table 1 row:
// a steady-state GA over assignments with tournament selection, uniform
// crossover followed by balance repair, move mutation, and elitism.
//
// With Options.MemeticCrossover the GA becomes a memetic multilevel
// algorithm in the KaHyPar/KaFFPaE mould: crossover is replaced by
// memetic.Recombine — a V-cycle whose coarsening protects both parents' cut
// edges, so the offspring is floor-guaranteed never worse than the better
// parent — and most children are pure recombinations (the V-cycle's
// refinement is the memetic local search, reusing the offspring's
// score.Tracker state instead of rebuilding it), with a minority of
// mutation children keeping diversity. Foreign incumbents arriving over the
// portfolio/island exchange are recombined with the current best rather
// than inserted raw, the natural restart point Sanders & Schulz use in
// distributed evolutionary partitioning. The flat GA's random stream is
// untouched when the option is off: every memetic draw happens behind the
// flag, so existing goldens stay bit-identical.
package genetic

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/memetic"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/percolation"
	"repro/internal/refine"
	"repro/internal/rng"
)

// Options configures the GA.
type Options struct {
	// Objective is the fitness criterion (default MCut).
	Objective objective.Objective
	// Generations caps the evolution (default 200).
	Generations int
	// MemeticCrossover replaces flat label-aligned crossover with the
	// cut-protecting V-cycle recombination of internal/memetic. Children are
	// never worse than their better parent; the population shrinks to 12
	// because each recombination is a full multilevel pass.
	MemeticCrossover bool
	// CoarsenTo bounds the protected hierarchy's coarsening cutoff when
	// MemeticCrossover is set (0 selects the vcycle default for k).
	CoarsenTo int
	// Budget caps wall-clock time; 0 means no limit.
	Budget time.Duration
	// Seed drives all randomness.
	Seed int64
	// Initial optionally seeds the population with a starting partition: it
	// replaces one member of the initial population and elitism carries it
	// forward while it stays among the best, so the evolution never starts
	// worse than it. When nil the population is percolation + random,
	// bit-identical to earlier releases.
	Initial *partition.P
	// Runtime optionally attaches the run to a shared engine runtime — the
	// portfolio incumbent exchange and the live-progress monitor. Nil for
	// standalone runs.
	Runtime *engine.Runtime
}

// The GA's fixed parameters. Every child also gets one greedy k-way pass
// (the memetic local search).
const (
	// tournamentSize is the number of individuals drawn per parent
	// selection.
	tournamentSize = 3
	// mutationRate is the per-child expected number of random vertex moves.
	mutationRate = 4
	// elite is how many best individuals survive unchanged.
	elite = 2
)

func (o Options) withDefaults() Options {
	if o.Generations == 0 {
		o.Generations = 200
	}
	return o
}

// Result is the GA outcome.
type Result struct {
	Best        *partition.P
	Energy      float64
	Generations int
	// Cancelled reports that the run was interrupted by context
	// cancellation and Best is the best individual found so far.
	Cancelled bool
}

type individual struct {
	assign  []int32
	fitness float64
}

// Partition evolves a k-way partition of g.
func Partition(g *graph.Graph, k int, opt Options) (*Result, error) {
	return PartitionContext(context.Background(), g, k, opt)
}

// PartitionContext is Partition under cooperative cancellation: the
// evolution loop polls ctx per generation and per child alongside its budget
// check and, once ctx fires, returns the best individual so far with
// Result.Cancelled set. A context that is done before any population exists
// yields (nil, ctx.Err()).
func PartitionContext(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := g.NumVertices()
	if k < 2 || k > n {
		return nil, fmt.Errorf("genetic: k=%d out of range [2,%d]", k, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.Initial != nil && opt.Initial.Graph() != g {
		return nil, fmt.Errorf("genetic: initial partition is for a different graph")
	}
	r := rng.New(opt.Seed)
	eps := 1e-6 * (2 * g.TotalEdgeWeight() / float64(n))
	fitnessOf := func(assign []int32) float64 {
		p, err := partition.FromAssignment(g, assign, k)
		if err != nil {
			return 1e300
		}
		return opt.Objective.EvaluateSmoothed(p, eps)
	}

	// Initial population: percolation partitions from diverse seeds plus
	// random assignments for diversity.
	initPoll := engine.NewPoll(ctx, 1)
	population := 24
	if opt.MemeticCrossover {
		population = 12
	}
	pop := make([]individual, 0, population)
	for i := 0; len(pop) < population; i++ {
		if initPoll.Due() {
			return nil, initPoll.Err()
		}
		var assign []int32
		if i%2 == 0 {
			p, err := percolation.PartitionContext(ctx, g, k, percolation.Options{Seed: opt.Seed + int64(i)})
			if err == nil {
				assign = p.Assignment()
			} else if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		if assign == nil {
			assign = randomAssignment(n, k, r)
		}
		pop = append(pop, individual{assign: assign, fitness: fitnessOf(assign)})
	}
	if opt.Initial != nil {
		seeded := opt.Initial.Assignment()
		pop[len(pop)-1] = individual{assign: seeded, fitness: fitnessOf(seeded)}
	}
	sortPop(pop)

	// One engine step is one generation; the per-child context poll nests
	// inside a step through PollNow.
	loop := engine.NewLoop(ctx, engine.LoopOptions{
		Budget: opt.Budget, MaxSteps: opt.Generations,
		PollEvery: 1, BudgetEvery: 1, ProgressEvery: 1,
		Runtime: opt.Runtime,
	})
	bestSeen := pop[0].fitness
	leader := pop[0].assign
	loop.Improved(bestSeen, func() []int32 { return append([]int32(nil), leader...) })
	completed := 0 // fully-evaluated generations, excluding an aborted one
	for loop.Next() {
		// A portfolio peer's strictly better incumbent joins the population,
		// displacing the current worst (elitism then carries it forward). In
		// memetic mode the foreign solution is first recombined with the
		// local best — KaFFPaE's island crossover — so its structure merges
		// into the population instead of merely sitting beside it.
		if assign, fe, ok := loop.Foreign(); ok && fe < pop[0].fitness {
			adopted := append([]int32(nil), assign...) // other workers share the slice
			if opt.MemeticCrossover {
				if p, err := memetic.Recombine(ctx, g, k, adopted, pop[0].assign, memetic.Options{
					Objective: opt.Objective, CoarsenTo: opt.CoarsenTo, Seed: r.Int63(),
				}); err == nil {
					adopted = p.Assignment()
				}
			}
			pop[len(pop)-1] = individual{assign: adopted, fitness: fitnessOf(adopted)}
			sortPop(pop)
		}
		next := make([]individual, 0, population)
		for e := 0; e < elite && e < len(pop); e++ {
			next = append(next, pop[e])
		}
		for len(next) < population {
			if loop.PollNow() {
				break
			}
			pa := tournament(pop, tournamentSize, r)
			pb := tournament(pop, tournamentSize, r)
			if opt.MemeticCrossover && r.Intn(4) != 0 {
				// Recombination child: the V-cycle's per-level refinement is
				// the memetic local search (score.Tracker-driven inside
				// refine.KWay), so the returned partition is scored directly
				// — no mutate/repair/rebuild. The floor guarantee makes the
				// child at worst as good as its better parent.
				p, err := memetic.Recombine(ctx, g, k, pa.assign, pb.assign, memetic.Options{
					Objective: opt.Objective, CoarsenTo: opt.CoarsenTo, Seed: r.Int63(),
				})
				if err == nil {
					next = append(next, individual{
						assign:  p.Assignment(),
						fitness: opt.Objective.EvaluateSmoothed(p, eps),
					})
					continue
				}
				if ctx.Err() != nil {
					break
				}
				// Recombination failed (degenerate parents); fall through to
				// the flat pipeline as the mutation path.
			}
			child := crossover(pa.assign, pb.assign, k, r)
			mutate(child, k, mutationRate, r)
			repair(g, child, k, r)
			var fit float64
			if p, err := partition.FromAssignment(g, child, k); err == nil {
				// The memetic local search scores its candidate moves
				// incrementally (score.Tracker inside KWay); the refined
				// partition is then scored directly rather than rebuilt
				// from the assignment a second time.
				refine.KWay(p, refine.KWayOptions{
					Objective: opt.Objective, MaxPasses: 1, Imbalance: 0.5, Ctx: ctx,
				})
				child = p.Assignment()
				fit = opt.Objective.EvaluateSmoothed(p, eps)
			} else {
				fit = fitnessOf(child)
			}
			next = append(next, individual{assign: child, fitness: fit})
		}
		if loop.Cancelled() {
			// Keep the last fully-evaluated generation: pop is sorted and
			// pop[0] is the best individual seen (elitism preserves it).
			break
		}
		pop = next
		sortPop(pop)
		completed++
		if pop[0].fitness < bestSeen {
			bestSeen = pop[0].fitness
			leader := pop[0].assign
			loop.Improved(bestSeen, func() []int32 { return append([]int32(nil), leader...) })
		}
	}

	bestP, err := partition.FromAssignment(g, pop[0].assign, k)
	if err != nil {
		return nil, err
	}
	loop.Finish()
	return &Result{
		Best:        bestP,
		Energy:      opt.Objective.Evaluate(bestP),
		Generations: completed,
		Cancelled:   loop.Cancelled(),
	}, nil
}

func sortPop(pop []individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].fitness < pop[j].fitness })
}

func tournament(pop []individual, size int, r *rand.Rand) individual {
	best := pop[r.Intn(len(pop))]
	for i := 1; i < size; i++ {
		if c := pop[r.Intn(len(pop))]; c.fitness < best.fitness {
			best = c
		}
	}
	return best
}

func randomAssignment(n, k int, r *rand.Rand) []int32 {
	assign := make([]int32, n)
	for v := range assign {
		assign[v] = int32(r.Intn(k))
	}
	// Guarantee every part exists.
	perm := make([]int, n)
	rng.Perm(r, perm)
	for a := 0; a < k; a++ {
		assign[perm[a]] = int32(a)
	}
	return assign
}

// crossover aligns the parents' part labels greedily by overlap (labels are
// arbitrary, so naive uniform crossover would destroy both parents'
// structure), then mixes them uniformly.
func crossover(a, b []int32, k int, r *rand.Rand) []int32 {
	// overlap[x][y] = #vertices with label x in a and y in b.
	overlap := make([][]int, k)
	for x := range overlap {
		overlap[x] = make([]int, k)
	}
	for v := range a {
		overlap[a[v]][b[v]]++
	}
	// Greedy assignment of b-labels to a-labels.
	mapB := make([]int32, k)
	usedA := make([]bool, k)
	usedB := make([]bool, k)
	for step := 0; step < k; step++ {
		bx, by, bestOv := -1, -1, -1
		for x := 0; x < k; x++ {
			if usedA[x] {
				continue
			}
			for y := 0; y < k; y++ {
				if usedB[y] {
					continue
				}
				if overlap[x][y] > bestOv {
					bx, by, bestOv = x, y, overlap[x][y]
				}
			}
		}
		mapB[by] = int32(bx)
		usedA[bx] = true
		usedB[by] = true
	}
	child := make([]int32, len(a))
	for v := range a {
		if r.Intn(2) == 0 {
			child[v] = a[v]
		} else {
			child[v] = mapB[b[v]]
		}
	}
	return child
}

func mutate(assign []int32, k, rate int, r *rand.Rand) {
	for i := 0; i < rate; i++ {
		assign[r.Intn(len(assign))] = int32(r.Intn(k))
	}
}

// repair guarantees every part is non-empty by reassigning random vertices
// from the largest parts.
func repair(g *graph.Graph, assign []int32, k int, r *rand.Rand) {
	counts := make([]int, k)
	for _, a := range assign {
		counts[a]++
	}
	for target := 0; target < k; target++ {
		if counts[target] > 0 {
			continue
		}
		// Steal a vertex from the largest part.
		big := 0
		for a := 1; a < k; a++ {
			if counts[a] > counts[big] {
				big = a
			}
		}
		for attempt := 0; attempt < len(assign); attempt++ {
			v := r.Intn(len(assign))
			if int(assign[v]) == big && counts[big] > 1 {
				assign[v] = int32(target)
				counts[big]--
				counts[target]++
				break
			}
		}
	}
}
