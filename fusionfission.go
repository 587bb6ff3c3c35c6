// Package fusionfission is the public facade of this repository: a Go
// implementation of the fusion-fission graph-partitioning metaheuristic of
// Bichot (IPPS 2006), together with every method the paper compares it
// against — linear, spectral (Lanczos and RQI), multilevel, percolation,
// simulated annealing and ant colony — and the synthetic European-airspace
// workload the paper evaluates on.
//
// Quick start:
//
//	b := fusionfission.NewBuilder(4)
//	b.AddEdge(0, 1, 1)
//	b.AddEdge(1, 2, 1)
//	b.AddEdge(2, 3, 1)
//	g, _ := b.Build()
//	res, _ := fusionfission.Partition(g, fusionfission.Options{K: 2})
//	fmt.Println(res.Parts, res.Mcut)
//
// The heavy lifting lives in the internal packages (internal/core is the
// metaheuristic itself); this package provides a stable, string-keyed entry
// point used by the cmd/ tools and the examples.
package fusionfission

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/airspace"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/vcycle"
)

// Graph is the weighted undirected graph type all methods operate on.
type Graph = graph.Graph

// Builder incrementally constructs a Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// ReadMETIS parses a graph in METIS/Chaco format.
func ReadMETIS(r io.Reader) (*Graph, error) { return graph.ReadMETIS(r) }

// WriteMETIS writes a graph in METIS/Chaco format.
func WriteMETIS(w io.Writer, g *Graph) error { return graph.WriteMETIS(w, g) }

// AirspaceSpec parameterizes the synthetic European core-area workload.
type AirspaceSpec = airspace.Spec

// AirspaceMeta describes the generated geography.
type AirspaceMeta = airspace.Meta

// GenerateAirspace builds the synthetic 762-sector / 3165-edge European
// core-area graph (or a rescaled variant via spec).
func GenerateAirspace(spec AirspaceSpec) (*Graph, *AirspaceMeta, error) {
	return airspace.Generate(spec)
}

// DefaultAirspace returns the paper-sized airspace specification.
func DefaultAirspace() AirspaceSpec { return airspace.Default() }

// Methods returns the identifiers of the paper's seventeen Table 1 methods,
// sorted.
func Methods() []string { return sortedIDs(experiments.Methods) }

// ExtensionMethods returns the identifiers of the methods this repository
// provides beyond the paper's table (baselines, direct k-way multilevel,
// genetic algorithm), sorted.
func ExtensionMethods() []string { return sortedIDs(experiments.ExtensionMethods) }

func sortedIDs(specs []experiments.MethodSpec) []string {
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = spec.ID
	}
	sort.Strings(ids)
	return ids
}

// MethodInfo describes one available partitioning method.
type MethodInfo struct {
	// ID is the stable kebab-case identifier accepted by Options.Method.
	ID string `json:"id"`
	// Label is the human-readable name (the paper's Table 1 row label for
	// non-extension methods).
	Label string `json:"label"`
	// Extension marks methods beyond the paper's Table 1.
	Extension bool `json:"extension"`
	// Metaheuristic marks methods that target a specific objective and
	// accept a time budget; the rest are criterion-blind and deterministic.
	Metaheuristic bool `json:"metaheuristic"`
	// Multilevel marks methods that honour Options.Multilevel — the
	// engine-backed metaheuristics that can run inside the V-cycle driver.
	Multilevel bool `json:"multilevel"`
	// Memetic marks methods that honour Options.MemeticCrossover — currently
	// the genetic algorithm, whose crossover can become a cut-protecting
	// V-cycle recombination.
	Memetic bool `json:"memetic"`
}

// MethodInfos returns metadata for every method, Table 1 rows first, both
// groups sorted by ID.
func MethodInfos() []MethodInfo {
	var out []MethodInfo
	for i, group := range [][]experiments.MethodSpec{experiments.Methods, experiments.ExtensionMethods} {
		start := len(out)
		for _, spec := range group {
			out = append(out, MethodInfo{
				ID: spec.ID, Label: spec.Name, Extension: i == 1,
				Metaheuristic: spec.Metaheuristic, Multilevel: spec.Multilevel, Memetic: spec.Memetic,
			})
		}
		sort.Slice(out[start:], func(i, j int) bool { return out[start+i].ID < out[start+j].ID })
	}
	return out
}

// ValidMethod reports whether id names a known method.
func ValidMethod(id string) bool {
	_, ok := experiments.MethodByID(id)
	return ok
}

// MaxParallelism bounds Options.Parallelism: every portfolio worker is a
// full concurrent solver instance (graph-sized state, one goroutine, a
// barrier slot), so widths beyond any plausible core count are a mistake,
// not a request.
const MaxParallelism = 1024

// Options selects a method and its parameters. The zero value of every
// field is a valid "use the default" request, and the struct round-trips
// through JSON (Budget marshals as integer nanoseconds, Go's encoding of
// time.Duration), so Options can travel over the wire unchanged.
type Options struct {
	// K is the number of parts (required, >= 1; metaheuristics need >= 2).
	K int `json:"k"`
	// Method is a Methods() identifier (default "fusion-fission").
	Method string `json:"method,omitempty"`
	// Objective is "mcut" (default), "cut" or "ncut"; it drives the
	// metaheuristics and is ignored by the criterion-blind classical
	// methods.
	Objective string `json:"objective,omitempty"`
	// Seed makes stochastic methods reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Budget caps metaheuristic wall-clock time (default 2s; negative
	// values are rejected).
	Budget time.Duration `json:"budget,omitempty"`
	// MaxSteps optionally caps metaheuristic steps for deterministic work
	// amounts (benchmarks); 0 runs the method default, negative values are
	// rejected.
	MaxSteps int `json:"max_steps,omitempty"`
	// Parallelism is the portfolio width for metaheuristics: that many
	// concurrent workers run the method from independently derived seeds
	// (worker 0 keeps Seed itself) and the best final partition wins
	// deterministically. Flat annealing and genetic workers also exchange
	// incumbents at a step cadence, which BENCH_exchange.json shows pays
	// for them; every other portfolio is independent restarts. 0 and 1 run the
	// plain serial solver, bit-identical to earlier releases; classical
	// methods ignore the field, and widths beyond MaxParallelism are
	// rejected (each worker is a full concurrent solver instance). For
	// step-capped runs any width is exactly reproducible for a given
	// (seed, parallelism) pair.
	Parallelism int `json:"parallelism,omitempty"`
	// Multilevel runs the metaheuristic inside a multilevel V-cycle: the
	// graph is coarsened by heavy-edge matching, the search runs on the
	// coarsest graph (where steps are cheap and moves are global), and the
	// partition is projected up level by level with local refinement — the
	// standard acceleration for large graphs, typically reaching a flat
	// search's quality in a fraction of its budget. Composes with
	// Parallelism: each worker runs its own V-cycle over one shared
	// hierarchy, independently of the others, and the best wins. Honoured
	// by the methods MethodInfos marks Multilevel (the engine-backed
	// metaheuristics) and cleared for all others during normalization, the
	// same way Parallelism is pinned for classical methods.
	Multilevel bool `json:"multilevel,omitempty"`
	// MemeticCrossover upgrades the genetic algorithm to a memetic multilevel
	// algorithm: crossover becomes the cut-protecting V-cycle recombination
	// of KaHyPar-style memetic partitioning — coarsening is forbidden from
	// contracting any edge cut by either parent, the coarsest graph is seeded
	// from the fitter parent, and refinement on the way up merges the
	// parents' boundaries — so every offspring is floor-guaranteed never
	// worse than its better parent. Takes precedence over Multilevel for the
	// genetic method (recombination is its multilevel mode; Multilevel is
	// cleared during normalization) and is itself cleared for every method
	// MethodInfos does not mark Memetic. Composes with Parallelism and
	// WarmStart the same way the flat GA does.
	MemeticCrossover bool `json:"memetic_crossover,omitempty"`
	// CoarsenTo is the V-cycle's coarsening cutoff: coarsening stops once
	// the graph has at most this many vertices. 0 picks a default scaled to
	// K; the cutoff is clamped to at least 2K. Meaningful with Multilevel or
	// MemeticCrossover (cleared otherwise during normalization).
	CoarsenTo int `json:"coarsen_to,omitempty"`
	// WarmStart optionally seeds the solve with a previous assignment (one
	// part id in [0, K) per vertex, length NumVertices) — the incremental
	// repartitioning path for drifting graphs: the assignment is first
	// repaired locally with refine.KWay (charged against Budget), every
	// solver worker starts from the repaired seed instead of cold
	// initialization, and the final result is guaranteed no worse than the
	// repaired seed under the target objective. Metaheuristics only, and
	// incompatible with Multilevel (cleared during normalization): the
	// V-cycle solves the coarsest graph, where a fine assignment is
	// meaningless.
	WarmStart []int32 `json:"warm_start,omitempty"`
	// Relayout renumbers the graph with the locality ordering
	// (internal/order, degree-descending BFS windows) before the solve, so
	// the solver's per-proposal adjacency walks touch cache-adjacent ids
	// instead of the caller's arbitrary numbering. Purely a renumbering:
	// warm starts are permuted in, the result's Parts are mapped back to the
	// caller's vertex ids, and every partition statistic is unchanged
	// through the map (the relayout-invariance property suite pins this
	// bit-for-bit). Trajectories of stochastic methods differ from a
	// non-relayout run of the same seed — the proposal stream walks a
	// different numbering — so the flag is part of the request identity
	// (server cache and island-exchange keys include it); islands federate
	// correctly because the ordering is a deterministic function of the
	// graph, giving every island the same renumbering.
	Relayout bool `json:"relayout,omitempty"`
	// Island is this process's island index in a federated fleet (0-based).
	// It offsets worker-seed derivation by Island*Parallelism — so islands
	// sharing a base seed search disjoint random streams — and breaks
	// cross-island winner ties deterministically. Leave 0 for
	// single-process runs.
	Island int `json:"island,omitempty"`
	// Exchange, when non-nil, federates the metaheuristic's incumbent
	// exchange across islands: each exchange round's local winner is traded
	// with the peer islands and every worker receives the fleet-wide
	// winner. Only flat annealing and genetic portfolios exchange; the
	// other methods never call it, so their islands search independently.
	// The server's HTTP island transport provides the
	// implementation; the field never travels through JSON.
	Exchange Relay `json:"-"`
}

// Relay is the cross-island exchange hook a federated transport plugs into
// Options.Exchange; internal/server implements it over HTTP long-polls.
type Relay = engine.Relay

// ExchangeCandidate is one island's deposited incumbent, as fleet clients
// see it when reducing fanned-out results deterministically.
type ExchangeCandidate = engine.Candidate

// ReduceWinner reduces candidates to the deterministic fleet winner: lowest
// energy, ties to the lowest island, then the lowest worker index — the
// same comparison every exchange round uses, so a client reducing the final
// results of a fanned-out job agrees with the islands themselves.
func ReduceWinner(cands []ExchangeCandidate) (ExchangeCandidate, bool) {
	return engine.ReduceWinner(cands)
}

// normalized fills defaults and resolves the method and objective, returning
// the completed options alongside the method's spec.
func (o Options) normalized() (Options, experiments.MethodSpec, objective.Objective, error) {
	var spec experiments.MethodSpec
	if o.K < 1 {
		return o, spec, 0, fmt.Errorf("fusionfission: K=%d out of range (want K >= 1)", o.K)
	}
	if o.Method == "" {
		o.Method = "fusion-fission"
	}
	spec, ok := experiments.MethodByID(o.Method)
	if !ok {
		return o, spec, 0, fmt.Errorf("fusionfission: unknown method %q (see Methods() and ExtensionMethods())", o.Method)
	}
	if o.Objective == "" {
		o.Objective = "mcut"
	}
	obj, err := objective.Parse(o.Objective)
	if err != nil {
		return o, spec, 0, err
	}
	if o.Budget < 0 {
		return o, spec, 0, fmt.Errorf("fusionfission: Budget=%v must be >= 0", o.Budget)
	}
	if o.Budget == 0 {
		o.Budget = 2 * time.Second
	}
	if o.MaxSteps < 0 {
		return o, spec, 0, fmt.Errorf("fusionfission: MaxSteps=%d must be >= 0", o.MaxSteps)
	}
	if o.Parallelism < 0 || o.Parallelism > MaxParallelism {
		return o, spec, 0, fmt.Errorf("fusionfission: Parallelism=%d out of range [0,%d]", o.Parallelism, MaxParallelism)
	}
	if o.Parallelism == 0 {
		o.Parallelism = 1
	}
	if o.CoarsenTo < 0 {
		return o, spec, 0, fmt.Errorf("fusionfission: CoarsenTo=%d must be >= 0", o.CoarsenTo)
	}
	if o.Island < 0 {
		return o, spec, 0, fmt.Errorf("fusionfission: Island=%d must be >= 0", o.Island)
	}
	// Classical methods ignore the portfolio entirely; pinning their width
	// to 1 keeps equivalent requests on identical cache/coalescing keys.
	// Same story for the V-cycle flags on methods that don't run inside a
	// V-cycle.
	if !spec.Metaheuristic {
		if len(o.WarmStart) > 0 {
			return o, spec, 0, fmt.Errorf("fusionfission: method %q is deterministic and cannot be warm-started", o.Method)
		}
		o.Parallelism = 1
	}
	if !spec.Multilevel {
		o.Multilevel = false
	}
	if !spec.Memetic {
		o.MemeticCrossover = false
	}
	if len(o.WarmStart) > 0 {
		// A warm seed replaces the V-cycle: the whole point is to repair the
		// previous fine-graph cut in place, not to re-coarsen from scratch.
		// Memetic recombination is unaffected — its hierarchies are rebuilt
		// per crossover around each parent pair, warm seed included.
		o.Multilevel = false
	}
	if o.MemeticCrossover {
		// Memetic recombination is the GA's multilevel mode; running it
		// inside another V-cycle would recombine coarse-graph phenotypes.
		o.Multilevel = false
	}
	if !o.Multilevel && !o.MemeticCrossover {
		o.CoarsenTo = 0
	}
	return o, spec, obj, nil
}

// Normalize returns opt with all defaults filled in (method, objective,
// budget), or an error if the method or objective is unknown. Callers that
// key caches on Options should normalize first so equivalent requests
// collide.
func Normalize(opt Options) (Options, error) {
	o, _, _, err := opt.normalized()
	return o, err
}

// Result reports a computed partition under all three paper objectives.
// Like Options it round-trips through JSON.
type Result struct {
	// Parts assigns each vertex a part id in [0, NumParts).
	Parts []int32 `json:"parts"`
	// NumParts is the number of non-empty parts.
	NumParts int `json:"num_parts"`
	// Cut, Ncut and Mcut are the paper's objectives (section 1) evaluated
	// on the partition. Cut follows the paper's convention of counting
	// each crossing edge from both sides.
	Cut  float64 `json:"cut"`
	Ncut float64 `json:"ncut"`
	Mcut float64 `json:"mcut"`
	// Imbalance is max part weight over the ideal share, minus 1.
	Imbalance float64 `json:"imbalance"`
	// Elapsed is the method runtime (nanoseconds in JSON).
	Elapsed time.Duration `json:"elapsed"`
	// Method echoes the method identifier used.
	Method string `json:"method"`
	// Workers is the number of portfolio workers the solve ran (1 for
	// serial runs and classical methods).
	Workers int `json:"workers,omitempty"`
	// Cancelled reports a partial result: the metaheuristic was interrupted
	// by context cancellation, or its budget was clamped by the context
	// deadline, and the partition is the best found so far rather than the
	// result of a full-budget run. Always false for classical methods,
	// which return ctx.Err() instead of a partial partition, and for
	// Partition, whose context never fires.
	Cancelled bool `json:"cancelled,omitempty"`
	// Hierarchy describes the coarsening ladder of a multilevel run —
	// levels, per-level vertex counts, coarsest graph size. Nil unless
	// Options.Multilevel was honoured.
	Hierarchy *HierarchyStats `json:"hierarchy,omitempty"`
	// ExchangeRounds counts the incumbent-exchange rounds the solve
	// completed — step-cadence barriers, federated across islands or not.
	// 0 for serial runs and for methods whose portfolios never exchange.
	ExchangeRounds int64 `json:"exchange_rounds,omitempty"`
	// Island reports this process's island index when the run was federated
	// (Options.Exchange set) or explicitly placed (Options.Island > 0);
	// absent for plain single-process runs.
	Island *int `json:"island,omitempty"`
	// WarmStart reports that the solve was seeded from a previous assignment
	// (Options.WarmStart): the result is never worse than the repaired seed
	// under the target objective.
	WarmStart bool `json:"warm_start,omitempty"`
	// Relayout reports that the solve ran on the locality-relabeled graph
	// (Options.Relayout); Parts is always in the caller's vertex numbering
	// regardless.
	Relayout bool `json:"relayout,omitempty"`
}

// HierarchyStats is the shape of a multilevel run's coarsening hierarchy,
// reported in Result.Hierarchy.
type HierarchyStats = vcycle.Stats

// Partition cuts g into opt.K parts with the selected method.
func Partition(g *Graph, opt Options) (*Result, error) {
	return PartitionContext(context.Background(), g, opt)
}

// Monitor is a live view of a running solve — total steps, best objective
// so far, portfolio width — safe for concurrent reads while the solve runs.
// Create one with NewMonitor, pass it to PartitionMonitored and poll
// Progress from any goroutine; the server's GET /v1/jobs/{id} endpoint is
// such a poller.
type Monitor = engine.Incumbent

// Progress is a Monitor snapshot.
type Progress = engine.Progress

// NewMonitor returns an empty Monitor.
func NewMonitor() *Monitor { return engine.NewIncumbent() }

// PartitionContext is Partition under cooperative cancellation. The selected
// method's time budget is clamped to the context deadline, and every method
// — metaheuristic or classical — polls ctx at its natural step boundaries,
// so the computation itself stops promptly once ctx fires; no goroutine
// outlives the call.
//
// Cancellation semantics per method family:
//
//   - Metaheuristics (anytime searches) return the best partition found so
//     far with Result.Cancelled set and a nil error. If ctx fires before a
//     first solution exists, ctx.Err() is returned instead.
//   - Classical methods have no meaningful partial result and return
//     ctx.Err().
//
// A context that is already done on entry always yields ctx.Err() without
// starting the solver.
func PartitionContext(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	return PartitionMonitored(ctx, g, opt, nil)
}

// PartitionMonitored is PartitionContext with live progress: while the
// solve runs, mon reports the steps executed, the best objective value so
// far and the portfolio width. A nil mon disables monitoring.
func PartitionMonitored(ctx context.Context, g *Graph, opt Options, mon *Monitor) (*Result, error) {
	opt, spec, obj, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	if opt.K > g.NumVertices() {
		return nil, fmt.Errorf("fusionfission: K=%d exceeds the vertex count %d", opt.K, g.NumVertices())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	clamped := false
	if deadline, ok := ctx.Deadline(); ok {
		if remaining := time.Until(deadline); remaining < opt.Budget {
			if remaining <= 0 {
				return nil, context.DeadlineExceeded
			}
			opt.Budget = remaining
			clamped = true
		}
	}
	if mon == nil {
		// The monitor doubles as the exchange-round counter the Result
		// reports, so every solve gets one; trajectories are unaffected.
		mon = NewMonitor()
	}
	start := time.Now()
	// Relayout: solve on the locality-relabeled graph and translate at the
	// boundaries — the warm seed is permuted in, the final Parts are mapped
	// back through the inverse permutation below. Everything in between
	// (repair, solver, floor guarantee, statistics) runs in relabeled ids;
	// the scores are invariant under the renumbering, so no comparison
	// changes meaning. The relabeling cost is charged against the budget
	// like V-cycle coarsening is.
	var relayoutInv []int32
	if opt.Relayout {
		perm := order.Locality(g)
		rg, err := graph.Relabel(g, perm)
		if err != nil {
			return nil, fmt.Errorf("fusionfission: relayout: %w", err)
		}
		if len(opt.WarmStart) > 0 {
			ws := make([]int32, len(opt.WarmStart))
			for v, a := range opt.WarmStart {
				ws[perm[v]] = a
			}
			opt.WarmStart = ws
		}
		g = rg
		relayoutInv = order.Inverse(perm)
	}
	// A warm start is repaired before the solve: refine.KWay moves boundary
	// vertices until the seed is locally optimal again (it never empties or
	// creates parts and never worsens the objective), so the solver starts
	// from a valid, already-good partition instead of the raw drifted
	// assignment. The repair is wall-clock the caller asked to spend on this
	// solve, so it is charged against the budget the same way V-cycle
	// coarsening is.
	var warmSeed *partition.P
	var warmAssign []int32
	if len(opt.WarmStart) > 0 {
		wp, err := partition.FromAssignment(g, opt.WarmStart, opt.K)
		if err != nil {
			return nil, fmt.Errorf("fusionfission: warm start: %w", err)
		}
		refine.KWay(wp, refine.KWayOptions{Objective: obj, Ctx: ctx})
		warmSeed = wp
		warmAssign = wp.Assignment()
		if opt.Budget -= time.Since(start); opt.Budget < time.Millisecond {
			opt.Budget = time.Millisecond
		}
	}
	run, err := spec.Run(ctx, g, opt.K, experiments.RunConfig{
		Objective: obj, Budget: opt.Budget, MaxSteps: opt.MaxSteps,
		Seed: opt.Seed, Parallelism: opt.Parallelism,
		Multilevel: opt.Multilevel, CoarsenTo: opt.CoarsenTo,
		MemeticCrossover: opt.MemeticCrossover, Monitor: mon,
		Island: opt.Island, Relay: opt.Exchange,
		WarmStart: warmAssign,
	})
	if err != nil {
		return nil, err
	}
	p, partial := run.P, run.Partial
	if warmSeed != nil && obj.Evaluate(p) > obj.Evaluate(warmSeed) {
		// The floor guarantee: a warm-started run never returns worse than
		// its repaired seed, no matter where the search wandered.
		p = warmSeed
	}
	res := resultFrom(p, opt.Method, time.Since(start))
	if relayoutInv != nil {
		// Back to caller numbering: relabeled vertex nv is the caller's
		// inverse[nv], and part ids are untouched by the renumbering.
		parts := make([]int32, len(res.Parts))
		for nv, a := range res.Parts {
			parts[relayoutInv[nv]] = a
		}
		res.Parts = parts
		res.Relayout = true
	}
	res.Workers = run.Workers
	res.Hierarchy = run.Hierarchy
	res.ExchangeRounds = mon.ExchangeRounds()
	if opt.Exchange != nil || opt.Island > 0 {
		island := opt.Island
		res.Island = &island
	}
	res.WarmStart = warmSeed != nil
	// partial is the solver's own record of having observed the
	// cancellation. A run truncated by a deadline-clamped budget is partial
	// too — it spent the whole clamp without reaching its step cap, and its
	// own budget check may beat the context timer by a hair — so the server
	// can decide "never cache partial results" without racing that timer. A
	// clamped run that finished under the clamp (e.g. MaxSteps bound first)
	// is complete and stays unmarked.
	res.Cancelled = partial || (spec.Metaheuristic && clamped && res.Elapsed >= opt.Budget)
	return res, nil
}

func resultFrom(p *partition.P, method string, elapsed time.Duration) *Result {
	cut, ncut, mcut := objective.EvaluateAll(p)
	return &Result{
		Parts:     p.Compact(),
		NumParts:  p.NumParts(),
		Cut:       cut,
		Ncut:      ncut,
		Mcut:      mcut,
		Imbalance: objective.Imbalance(p),
		Elapsed:   elapsed,
		Method:    method,
	}
}
