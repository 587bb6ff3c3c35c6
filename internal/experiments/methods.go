// Package experiments reproduces the paper's evaluation: Table 1 (the
// seventeen-method comparison on the 762-sector core-area graph at k = 32,
// under the Cut, Ncut and Mcut objectives) and Figure 1 (anytime Mcut
// quality of the three metaheuristics against the spectral and multilevel
// reference levels).
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/anneal"
	"repro/internal/antcolony"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/genetic"
	"repro/internal/graph"
	"repro/internal/linear"
	"repro/internal/multilevel"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/percolation"
	"repro/internal/spectral"
	"repro/internal/vcycle"
)

// RunConfig carries the method-independent knobs of one solve.
type RunConfig struct {
	// Objective is the criterion metaheuristics target; classical methods
	// ignore it.
	Objective objective.Objective
	// Budget caps a metaheuristic's wall-clock time; 0 means no limit.
	Budget time.Duration
	// MaxSteps caps a metaheuristic's steps (0 = the method default).
	MaxSteps int
	// Seed drives all randomness; a portfolio derives per-worker seeds
	// from it.
	Seed int64
	// Parallelism is the portfolio width for metaheuristics: that many
	// concurrent workers search from independently derived seeds and the
	// best worker's partition wins. Annealing and genetic workers also
	// exchange incumbents at a step cadence; every other portfolio is
	// independent restarts. Values <= 1 run the plain serial solver;
	// classical methods always run serially.
	Parallelism int
	// Multilevel runs a metaheuristic inside a multilevel V-cycle (package
	// vcycle): coarsen by heavy-edge matching, search the coarsest graph,
	// project up with refinement per level. Under a portfolio each worker
	// runs its own V-cycle over one shared hierarchy, independently of the
	// others, and the best result wins. Ignored by methods whose MethodSpec
	// does not mark Multilevel support.
	Multilevel bool
	// CoarsenTo is the V-cycle's coarsening cutoff in vertices (0 selects
	// the default of coarsen.Cutoff); meaningful with Multilevel or
	// MemeticCrossover.
	CoarsenTo int
	// MemeticCrossover switches the genetic algorithm's crossover to the
	// cut-protecting V-cycle recombination of internal/memetic (offspring
	// floor-guaranteed never worse than the better parent). Takes precedence
	// over Multilevel — memetic recombination is the GA's multilevel mode.
	// Only methods whose MethodSpec marks Memetic support recombine; the
	// facade clears the flag for the rest.
	MemeticCrossover bool
	// Monitor optionally receives live progress (steps, best objective,
	// workers); used by the server's job-polling endpoint.
	Monitor *engine.Incumbent
	// Island is this process's island index in a federated run; it offsets
	// worker-seed derivation (island*width) and breaks cross-island winner
	// ties. 0 for single-process runs.
	Island int
	// Relay, when non-nil, federates the portfolio's incumbent exchange
	// across islands: each round's local winner is traded with the peers
	// and every worker receives the fleet-wide winner. Only flat annealing
	// and genetic portfolios exchange; the others never call it. Used by
	// the server's HTTP island transport; nil for single-process runs.
	Relay engine.Relay
	// WarmStart optionally seeds a metaheuristic with a previous assignment
	// (one part id in [0, k) per vertex): every portfolio worker starts from
	// it instead of cold initialization. The facade repairs the assignment
	// with refine.KWay before it lands here, so solvers receive a locally
	// optimal seed. Incompatible with Multilevel (the V-cycle solves the
	// coarsest graph, where a fine-graph assignment is meaningless) and
	// ignored by classical methods.
	WarmStart []int32
}

// RunResult is one method run's outcome.
type RunResult struct {
	// P is the computed partition.
	P *partition.P
	// Partial marks a metaheuristic interrupted by context cancellation:
	// P is the best partition found so far.
	Partial bool
	// Workers is the number of portfolio workers that ran (1 for serial
	// runs and classical methods).
	Workers int
	// Hierarchy describes the V-cycle's coarsening ladder when the run was
	// multilevel (RunConfig.Multilevel on a supporting method); nil
	// otherwise.
	Hierarchy *vcycle.Stats
}

// MethodSpec describes one partitioning method: a Table 1 row or an
// extension. Methods and ExtensionMethods are the repository's only method
// registry; the facade derives its ids, labels and capabilities from them.
type MethodSpec struct {
	// ID is the stable kebab-case identifier the facade accepts.
	ID string
	// Name is the row label, matching the paper's abbreviations.
	Name string
	// Metaheuristic marks the rows that target a specific objective and
	// accept a time budget and a portfolio width.
	Metaheuristic bool
	// Multilevel marks the metaheuristics that can run inside the V-cycle
	// driver (RunConfig.Multilevel). The classical multilevel rows are their
	// own multilevel scheme and do not carry the flag.
	Multilevel bool
	// Memetic marks the methods that honour RunConfig.MemeticCrossover
	// (currently the genetic algorithm only).
	Memetic bool
	// Run produces a k-way partition. Every method honours ctx
	// cooperatively: a classical method returns ctx.Err() once ctx fires,
	// a metaheuristic stops and returns its best partition so far with
	// RunResult.Partial set — the solver's own record of having observed
	// the cancellation, free of any race against the context timer.
	Run func(ctx context.Context, g *graph.Graph, k int, cfg RunConfig) (RunResult, error)
}

// Methods lists the Table 1 rows in the paper's order.
var Methods = []MethodSpec{
	{ID: "linear-bi", Name: "Linear (Bi)", Run: runLinear(2, false)},
	{ID: "linear-bi-kl", Name: "Linear (Bi, KL)", Run: runLinear(2, true)},
	{ID: "linear-oct-kl", Name: "Linear (Oct, KL)", Run: runLinear(8, true)},
	{ID: "spectral-lanc-bi", Name: "Spectral (Lanc, Bi)", Run: runSpectral(spectral.Lanczos, 2, false)},
	{ID: "spectral-lanc-bi-kl", Name: "Spectral (Lanc, Bi, KL)", Run: runSpectral(spectral.Lanczos, 2, true)},
	{ID: "spectral-lanc-oct", Name: "Spectral (Lanc, Oct)", Run: runSpectral(spectral.Lanczos, 8, false)},
	{ID: "spectral-lanc-oct-kl", Name: "Spectral (Lanc, Oct, KL)", Run: runSpectral(spectral.Lanczos, 8, true)},
	{ID: "spectral-rqi-bi", Name: "Spectral (RQI, Bi)", Run: runSpectral(spectral.RQI, 2, false)},
	{ID: "spectral-rqi-bi-kl", Name: "Spectral (RQI, Bi, KL)", Run: runSpectral(spectral.RQI, 2, true)},
	{ID: "spectral-rqi-oct", Name: "Spectral (RQI, Oct)", Run: runSpectral(spectral.RQI, 8, false)},
	{ID: "spectral-rqi-oct-kl", Name: "Spectral (RQI, Oct, KL)", Run: runSpectral(spectral.RQI, 8, true)},
	{ID: "multilevel-bi", Name: "Multilevel (Bi)", Run: runMultilevel(2)},
	{ID: "multilevel-oct", Name: "Multilevel (Oct)", Run: runMultilevel(8)},
	{ID: "percolation", Name: "Percolation", Run: runPercolation},
	{ID: "annealing", Name: "Simulated annealing", Metaheuristic: true, Multilevel: true, Run: annealingMeta.run},
	{ID: "ant-colony", Name: "Ant colony", Metaheuristic: true, Multilevel: true, Run: antColonyMeta.run},
	{ID: "fusion-fission", Name: "Fusion Fission", Metaheuristic: true, Multilevel: true, Run: fusionFissionMeta.run},
}

// ExtensionMethods lists partitioners beyond the paper's Table 1: the
// remaining Chaco-style baselines, the direct k-way multilevel scheme and
// the genetic-algorithm metaheuristic the paper's introduction cites as
// prior work. They never appear in the Table 1 reproduction, only through
// the facade and the ablation benches.
var ExtensionMethods = []MethodSpec{
	{ID: "random", Name: "Random", Run: func(ctx context.Context, g *graph.Graph, k int, cfg RunConfig) (RunResult, error) {
		if err := ctx.Err(); err != nil {
			return RunResult{}, err
		}
		p, err := linear.Random(g, k, cfg.Seed)
		return serial(p), err
	}},
	{ID: "scattered", Name: "Scattered", Run: func(ctx context.Context, g *graph.Graph, k int, _ RunConfig) (RunResult, error) {
		if err := ctx.Err(); err != nil {
			return RunResult{}, err
		}
		p, err := linear.Scattered(g, k)
		return serial(p), err
	}},
	{ID: "multilevel-kway", Name: "Multilevel (KWay)", Run: func(ctx context.Context, g *graph.Graph, k int, cfg RunConfig) (RunResult, error) {
		p, err := multilevel.PartitionKWayContext(ctx, g, k, multilevel.Options{Seed: cfg.Seed})
		return serial(p), err
	}},
	{ID: "genetic", Name: "Genetic algorithm", Metaheuristic: true, Multilevel: true, Memetic: true,
		Run: geneticMeta.run},
}

// The engine-backed metaheuristics. Flat annealing and GA portfolios trade
// incumbents at a step cadence because BENCH_exchange.json shows it pays
// for them; for ant colony and fusion-fission, and inside every V-cycle,
// adopting a peer's winner never beat the best independent worker, so
// those portfolios are independent restarts.
var (
	// Annealing moves are cheap, so workers exchange on a coarse cadence.
	annealingMeta = metaheuristic{syncEvery: 16_384, solve: annealSolve}
	antColonyMeta = metaheuristic{solve: antColonySolve}
	// Fusion-fission needs a part slot per vertex so atoms can split freely.
	fusionFissionMeta = metaheuristic{slotPerVertex: true, solve: fusionFissionSolve}
	// One step is a whole generation: exchange often.
	geneticMeta = metaheuristic{syncEvery: 4, solve: geneticSolve}
)

// MethodByID returns the spec with the given id, searching the Table 1 rows
// first and the extensions second.
func MethodByID(id string) (MethodSpec, bool) {
	for _, group := range [][]MethodSpec{Methods, ExtensionMethods} {
		for _, m := range group {
			if m.ID == id {
				return m, true
			}
		}
	}
	return MethodSpec{}, false
}

func serial(p *partition.P) RunResult { return RunResult{P: p, Workers: 1} }

// portfolio runs solve as a cfg.Parallelism-wide engine portfolio (serial
// for widths <= 1, bit-identical to a direct call) and reduces the workers'
// outcomes to the deterministic winner under energy. syncEvery is the
// incumbent-exchange cadence in the solver's own step unit (0: independent
// restarts).
func portfolio(ctx context.Context, cfg RunConfig, syncEvery int,
	energy func(workerOutcome) float64,
	solve func(ctx context.Context, rt *engine.Runtime, seed int64) (workerOutcome, error),
) (workerOutcome, int, error) {
	workers := cfg.Parallelism
	if workers < 1 {
		workers = 1
	}
	return engine.Portfolio(ctx, engine.PortfolioOptions{
		Workers: workers, Seed: cfg.Seed, SyncEvery: syncEvery, Monitor: cfg.Monitor,
		Island: cfg.Island, Relay: cfg.Relay,
	}, energy, solve)
}

// workerOutcome is one portfolio worker's result.
type workerOutcome struct {
	p       *partition.P
	energy  float64
	partial bool
}

// metaheuristic adapts one engine-backed search to the method table: its
// flat portfolio run and its V-cycle run both derive from solve.
type metaheuristic struct {
	// syncEvery is the flat portfolio's incumbent-exchange cadence in the
	// solver's own step unit; 0 makes it independent restarts.
	syncEvery int
	// slotPerVertex materializes a warm start with one part slot per
	// vertex instead of exactly k, for searches whose part count roams.
	slotPerVertex bool
	// solve runs one worker's search on g from seed under budget, starting
	// from init when it is non-nil, and returns the best partition, its
	// energy and whether cancellation cut the search short.
	solve func(ctx context.Context, g *graph.Graph, k int, cfg RunConfig, budget time.Duration, seed int64, rt *engine.Runtime, init *partition.P) (*partition.P, float64, bool, error)
}

// run is the MethodSpec.Run of a metaheuristic. Memetic crossover takes
// precedence over the V-cycle: recombination is the GA's multilevel mode.
func (m metaheuristic) run(ctx context.Context, g *graph.Graph, k int, cfg RunConfig) (RunResult, error) {
	if cfg.Multilevel && !cfg.MemeticCrossover {
		return m.runVCycle(ctx, g, k, cfg)
	}
	slots := k
	if m.slotPerVertex {
		slots = g.NumVertices()
	}
	res, workers, err := portfolio(ctx, cfg, m.syncEvery,
		func(o workerOutcome) float64 { return o.energy },
		func(ctx context.Context, rt *engine.Runtime, seed int64) (o workerOutcome, err error) {
			init, err := warmInitial(g, cfg, slots)
			if err != nil {
				return o, err
			}
			o.p, o.energy, o.partial, err = m.solve(ctx, g, k, cfg, cfg.Budget, seed, rt, init)
			return o, err
		})
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{P: res.p, Partial: res.partial, Workers: workers}, nil
}

// runVCycle runs m inside a multilevel V-cycle, as a portfolio when
// cfg.Parallelism asks for one: the hierarchy is coarsened once from the
// base seed and shared by every worker, each worker V-cycles independently
// from its derived seed, and the best worker's partition wins.
func (m metaheuristic) runVCycle(ctx context.Context, g *graph.Graph, k int, cfg RunConfig) (RunResult, error) {
	if cfg.WarmStart != nil {
		// The V-cycle's solver runs on the coarsest graph, where a
		// fine-graph assignment is meaningless; callers must choose.
		return RunResult{}, fmt.Errorf("experiments: warm start is incompatible with multilevel")
	}
	buildStart := time.Now()
	h, err := vcycle.Build(ctx, g, cfg.CoarsenTo, k, cfg.Seed)
	if err != nil {
		return RunResult{}, err
	}
	// Coarsening time is metaheuristic wall-clock too: charge it against
	// the budget so a multilevel solve keeps the same time envelope as a
	// flat one. A budget the ladder ate entirely leaves a token slice — the
	// anytime contract still owes a valid partition.
	budget := cfg.Budget
	if budget > 0 {
		if budget -= time.Since(buildStart); budget < time.Millisecond {
			budget = time.Millisecond
		}
	}
	stats := vcycle.StatsOf(h)
	res, workers, err := portfolio(ctx, cfg, 0,
		func(o workerOutcome) float64 { return cfg.Objective.Evaluate(o.p) },
		func(ctx context.Context, rt *engine.Runtime, seed int64) (o workerOutcome, err error) {
			o.p, o.partial, err = vcycle.Run(ctx, h, k, vcycle.Options{
				Objective: cfg.Objective, Budget: budget, Runtime: rt,
			}, func(sctx context.Context, cg *graph.Graph, k int, budget time.Duration, srt *engine.Runtime) (*partition.P, bool, error) {
				p, _, partial, err := m.solve(sctx, cg, k, cfg, budget, seed, srt, nil)
				return p, partial, err
			})
			return o, err
		})
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{P: res.p, Partial: res.partial, Workers: workers, Hierarchy: &stats}, nil
}

func runLinear(arity int, kl bool) func(context.Context, *graph.Graph, int, RunConfig) (RunResult, error) {
	return func(ctx context.Context, g *graph.Graph, k int, _ RunConfig) (RunResult, error) {
		p, err := linear.PartitionContext(ctx, g, k, linear.Options{Arity: arity, KL: kl})
		return serial(p), err
	}
}

func runSpectral(solver spectral.Solver, arity int, kl bool) func(context.Context, *graph.Graph, int, RunConfig) (RunResult, error) {
	return func(ctx context.Context, g *graph.Graph, k int, cfg RunConfig) (RunResult, error) {
		p, err := spectral.PartitionContext(ctx, g, k, spectral.Options{Solver: solver, Arity: arity, KL: kl, Seed: cfg.Seed})
		return serial(p), err
	}
}

func runMultilevel(arity int) func(context.Context, *graph.Graph, int, RunConfig) (RunResult, error) {
	return func(ctx context.Context, g *graph.Graph, k int, cfg RunConfig) (RunResult, error) {
		p, err := multilevel.PartitionContext(ctx, g, k, multilevel.Options{Arity: arity, Seed: cfg.Seed})
		return serial(p), err
	}
}

func runPercolation(ctx context.Context, g *graph.Graph, k int, cfg RunConfig) (RunResult, error) {
	p, err := percolation.PartitionContext(ctx, g, k, percolation.Options{Seed: cfg.Seed})
	return serial(p), err
}

func annealSolve(ctx context.Context, g *graph.Graph, k int, cfg RunConfig, budget time.Duration, seed int64, rt *engine.Runtime, init *partition.P) (*partition.P, float64, bool, error) {
	res, err := anneal.PartitionContext(ctx, g, k, anneal.Options{
		Objective: cfg.Objective, Budget: budget,
		MaxSteps: stepsOr(cfg.MaxSteps, 2_000_000), Seed: seed, Runtime: rt,
		Initial: init,
	})
	if err != nil {
		return nil, 0, false, err
	}
	return res.Best, res.Energy, res.Cancelled, nil
}

func antColonySolve(ctx context.Context, g *graph.Graph, k int, cfg RunConfig, budget time.Duration, seed int64, rt *engine.Runtime, init *partition.P) (*partition.P, float64, bool, error) {
	res, err := antcolony.PartitionContext(ctx, g, k, antcolony.Options{
		Objective: cfg.Objective, Budget: budget,
		Iterations: stepsOr(cfg.MaxSteps, 1_000_000), Seed: seed, Runtime: rt,
		Initial: init,
	})
	if err != nil {
		return nil, 0, false, err
	}
	return res.Best, res.Energy, res.Cancelled, nil
}

func fusionFissionSolve(ctx context.Context, g *graph.Graph, k int, cfg RunConfig, budget time.Duration, seed int64, rt *engine.Runtime, init *partition.P) (*partition.P, float64, bool, error) {
	res, err := core.PartitionContext(ctx, g, k, core.Options{
		Objective: cfg.Objective, Budget: budget,
		MaxSteps: stepsOr(cfg.MaxSteps, 2_000_000), Seed: seed, Runtime: rt,
		Initial: init,
	})
	if err != nil {
		return nil, 0, false, err
	}
	return res.Best, res.Energy, res.Cancelled, nil
}

func geneticSolve(ctx context.Context, g *graph.Graph, k int, cfg RunConfig, budget time.Duration, seed int64, rt *engine.Runtime, init *partition.P) (*partition.P, float64, bool, error) {
	res, err := genetic.PartitionContext(ctx, g, k, genetic.Options{
		Objective: cfg.Objective, Budget: budget,
		Generations: stepsOr(cfg.MaxSteps, 100_000), Seed: seed, Runtime: rt,
		Initial:          init,
		MemeticCrossover: cfg.MemeticCrossover, CoarsenTo: cfg.CoarsenTo,
	})
	if err != nil {
		return nil, 0, false, err
	}
	return res.Best, res.Energy, res.Cancelled, nil
}

// warmInitial materializes cfg.WarmStart as a starting partition for the
// graph being solved, with the given part-slot capacity. nil when no warm
// start is present.
func warmInitial(g *graph.Graph, cfg RunConfig, capacity int) (*partition.P, error) {
	if cfg.WarmStart == nil {
		return nil, nil
	}
	p, err := partition.FromAssignment(g, cfg.WarmStart, capacity)
	if err != nil {
		return nil, fmt.Errorf("experiments: warm start: %w", err)
	}
	return p, nil
}

func stepsOr(steps, def int) int {
	if steps > 0 {
		return steps
	}
	return def
}
