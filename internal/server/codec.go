package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	ff "repro"
	"repro/internal/graph"
)

// PartitionRequest is the body of POST /v1/partition.
//
// The graph arrives inline, either as METIS/Chaco text or as an explicit
// edge list; exactly one of the two encodings must be present. All option
// fields are optional and default like the library facade (method
// "fusion-fission", objective "mcut", budget 2s, seed 0).
type PartitionRequest struct {
	Graph GraphSpec `json:"graph"`

	// K is the number of parts (required, >= 1).
	K int `json:"k"`
	// Method is a method identifier from GET /v1/methods.
	Method string `json:"method,omitempty"`
	// Objective is "cut", "ncut" or "mcut".
	Objective string `json:"objective,omitempty"`
	// Seed makes stochastic methods reproducible; identical requests with
	// the same seed return the identical partition (and hit the cache).
	Seed int64 `json:"seed,omitempty"`
	// Budget caps metaheuristic wall-clock time, as a Go duration string
	// ("250ms", "2s"). The server clamps it to its configured maximum.
	Budget string `json:"budget,omitempty"`
	// MaxSteps optionally caps metaheuristic steps for deterministic work.
	MaxSteps int `json:"max_steps,omitempty"`
	// Parallelism is the metaheuristic portfolio width: that many workers
	// search concurrently from derived seeds and the best result wins.
	// Clamped to the server's configured maximum; 0 and 1 run serially.
	Parallelism int `json:"parallelism,omitempty"`
	// Multilevel runs the metaheuristic inside a multilevel V-cycle
	// (coarsen, search the coarsest graph, refine on uncoarsening) —
	// typically much better quality per second on large graphs. Honoured by
	// the methods GET /v1/methods marks "multilevel"; ignored by the rest.
	Multilevel bool `json:"multilevel,omitempty"`
	// MemeticCrossover upgrades the genetic algorithm's crossover to the
	// cut-protecting V-cycle recombination (offspring never worse than the
	// better parent). Honoured by the methods GET /v1/methods marks
	// "memetic"; ignored by the rest. Takes precedence over multilevel.
	MemeticCrossover bool `json:"memetic_crossover,omitempty"`
	// CoarsenTo is the V-cycle coarsening cutoff in vertices (0 = a default
	// scaled to k); meaningful with multilevel or memetic_crossover.
	CoarsenTo int `json:"coarsen_to,omitempty"`
	// Relayout renumbers the graph with the deterministic locality ordering
	// before the solve (cache-friendlier adjacency walks for the hot-path
	// solvers); parts come back in the request's vertex numbering either
	// way. Changes stochastic trajectories for a given seed, so it is part
	// of the cache and federation identity.
	Relayout bool `json:"relayout,omitempty"`

	// Wait selects synchronous (default) or asynchronous handling. With
	// wait=false the server replies 202 with a job id to poll at
	// GET /v1/jobs/{id}.
	Wait *bool `json:"wait,omitempty"`
	// Timeout bounds the whole job (queue wait + run), as a Go duration
	// string. Default: budget plus the server's grace period.
	Timeout string `json:"timeout,omitempty"`
	// NoCache forces a fresh computation, bypassing the result cache for
	// both lookup and store.
	NoCache bool `json:"no_cache,omitempty"`
	// Federate opts this job into the island fleet, and the result reports
	// the island id and exchange round count. Flat annealing and genetic
	// runs trade incumbents with the server's configured peers at their
	// usual exchange cadence; every other method runs an independent island
	// search (0 exchange rounds, never waiting on a peer) whose result the
	// client reduces with the others'. Requires a server started with
	// peers (400 otherwise). Submit
	// the identical request to every fleet member — the jobs pair up by
	// graph content and options; with graph.id they pair by stored graph
	// id, with no inline graph bytes on the wire at all. Federated jobs
	// bypass the result cache.
	Federate bool `json:"federate,omitempty"`

	// WarmStart seeds the solve with a previous assignment (one part id in
	// [0, k) per vertex) — the incremental-repartitioning path: the server
	// repairs the assignment locally and the solver starts from it instead
	// of solving cold, and the result is never worse than the repaired
	// seed. Metaheuristics only. Typically combined with graph.id after a
	// POST /v1/graphs/{id}/mutate. A Labels decodes like []int32, scanning
	// the plain array of integers without reflection.
	WarmStart Labels `json:"warm_start,omitempty"`
}

// GraphSpec names the graph to partition in one of three ways: inline
// METIS text, an inline edge list, or the id of a graph previously uploaded
// to PUT /v1/graphs. Exactly one variant must be present.
type GraphSpec struct {
	// METIS is the graph in METIS/Chaco text format.
	METIS string `json:"metis,omitempty"`
	// N is the vertex count for the edge-list encoding.
	N int `json:"n,omitempty"`
	// Edges lists undirected edges as [u, v] or [u, v, weight] with
	// 0-based integer endpoints; weight defaults to 1.
	Edges EdgeList `json:"edges,omitempty"`
	// VertexWeights optionally assigns per-vertex weights (length N).
	VertexWeights []float64 `json:"vertex_weights,omitempty"`
	// ID references a stored graph by its content id (the digest returned
	// by PUT /v1/graphs). Stored-graph jobs skip the parse and build
	// entirely — the id *is* the content hash, so the result cache and
	// island exchange keys come for free, with no rehash. Unknown or
	// evicted ids answer 404.
	ID string `json:"id,omitempty"`
}

// badRequestError marks client errors that map to HTTP 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{fmt.Sprintf(format, args...)}
}

// decodeGraph materializes the request's inline graph (spec.ID resolution
// happens in the server, which owns the store). An edge list may declare at
// most maxVertices vertices, the bound METIS text gets from needing one
// line per vertex: n is checked before anything is allocated for it.
func decodeGraph(spec GraphSpec, maxVertices int64) (*graph.Graph, error) {
	return buildGraph(spec, len(spec.Edges), nil, maxVertices)
}

// hasInline reports whether spec carries inline graph content; nEdges is
// its edge count, which the one-pass scan keeps in place of spec.Edges.
func hasInline(spec GraphSpec, nEdges int) bool {
	return spec.METIS != "" || hasEdgeList(spec, nEdges)
}

func hasEdgeList(spec GraphSpec, nEdges int) bool {
	return spec.N != 0 || nEdges != 0 || len(spec.VertexWeights) != 0
}

// buildGraph is decodeGraph for a spec whose edges may already sit in a
// builder: the one-pass request scan feeds its nEdges edges into b as it
// reads them and leaves spec.Edges nil. Every other caller passes b nil.
func buildGraph(spec GraphSpec, nEdges int, b *graph.Builder, maxVertices int64) (*graph.Graph, error) {
	hasMETIS := spec.METIS != ""
	hasEdges := hasEdgeList(spec, nEdges)
	switch {
	case spec.ID != "" && (hasMETIS || hasEdges):
		return nil, badRequestf("graph: give a stored-graph id or inline content, not both")
	case hasMETIS && hasEdges:
		return nil, badRequestf("graph: give either metis text or an edge list, not both")
	case hasMETIS:
		g, err := graph.ReadMETIS(strings.NewReader(spec.METIS))
		if err != nil {
			return nil, badRequestf("%v", err) // already "graph:"-prefixed
		}
		return g, nil
	case hasEdges:
		return decodeEdgeList(spec, b, maxVertices)
	}
	return nil, badRequestf("graph: missing (want graph.id, graph.metis or graph.n + graph.edges)")
}

// vertexLimit is the largest n an edge list may declare.
func vertexLimit(maxVertices int64) int64 { return min(maxVertices, graph.MaxVertices) }

func decodeEdgeList(spec GraphSpec, b *graph.Builder, maxVertices int64) (*graph.Graph, error) {
	if spec.N <= 0 {
		return nil, badRequestf("graph: n must be positive, got %d", spec.N)
	}
	if limit := vertexLimit(maxVertices); int64(spec.N) > limit {
		return nil, badRequestf("graph: n = %d exceeds the limit of %d vertices", spec.N, limit)
	}
	if len(spec.VertexWeights) != 0 && len(spec.VertexWeights) != spec.N {
		return nil, badRequestf("graph: %d vertex weights for %d vertices", len(spec.VertexWeights), spec.N)
	}
	if b == nil {
		b = graph.NewBuilder(spec.N)
		b.Reserve(len(spec.Edges))
	}
	// A scanned builder already holds its edges. The scan accepts only
	// positive vertex weights, which cannot fail, so setting them after the
	// edges leaves the builder's first error what it is set before them.
	for i, w := range spec.VertexWeights {
		b.SetVertexWeight(i, w)
	}
	for i, e := range spec.Edges {
		if err := addEdge(b, i, e); err != nil {
			return nil, err
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	return g, nil
}

// addEdge feeds edge i of a wire edge list to b, or refuses it: an edge
// has two or three values, and integer endpoints.
func addEdge(b *graph.Builder, i int, e []float64) error {
	if len(e) != 2 && len(e) != 3 {
		return badRequestf("graph: edge %d has %d entries (want [u,v] or [u,v,w])", i, len(e))
	}
	u, v := e[0], e[1]
	if u != math.Trunc(u) || v != math.Trunc(v) {
		return badRequestf("graph: edge %d has non-integer endpoints [%g,%g]", i, u, v)
	}
	w := 1.0
	if len(e) == 3 {
		w = e[2]
	}
	b.AddEdge(int(u), int(v), w)
	return nil
}

// options converts the wire fields to library options, clamping the budget
// to maxBudget and the portfolio width to maxParallelism (0 = no clamp).
// The result is normalized so that equivalent requests produce identical
// cache keys.
func (r *PartitionRequest) options(maxBudget time.Duration, maxParallelism int) (ff.Options, error) {
	if r.K < 1 {
		return ff.Options{}, badRequestf("k must be >= 1, got %d", r.K)
	}
	if r.Parallelism < 0 {
		return ff.Options{}, badRequestf("parallelism must be >= 0, got %d", r.Parallelism)
	}
	if r.CoarsenTo < 0 {
		return ff.Options{}, badRequestf("coarsen_to must be >= 0, got %d", r.CoarsenTo)
	}
	opt := ff.Options{
		K:           r.K,
		Method:      r.Method,
		Objective:   r.Objective,
		Seed:        r.Seed,
		MaxSteps:    r.MaxSteps,
		Parallelism: r.Parallelism,
		Multilevel:  r.Multilevel,
		CoarsenTo:   r.CoarsenTo,
		Relayout:    r.Relayout,
		WarmStart:   r.WarmStart,

		MemeticCrossover: r.MemeticCrossover,
	}
	if maxParallelism > 0 && opt.Parallelism > maxParallelism {
		opt.Parallelism = maxParallelism
	}
	if r.Budget != "" {
		d, err := time.ParseDuration(r.Budget)
		if err != nil || d <= 0 {
			return ff.Options{}, badRequestf("bad budget %q (want a positive Go duration like \"500ms\")", r.Budget)
		}
		opt.Budget = d
	}
	opt, err := ff.Normalize(opt)
	if err != nil {
		return ff.Options{}, badRequestf("%v", err)
	}
	if maxBudget > 0 && opt.Budget > maxBudget {
		opt.Budget = maxBudget
	}
	return opt, nil
}

// timeout parses the job timeout; def applies when the field is absent.
func (r *PartitionRequest) timeout(def time.Duration) (time.Duration, error) {
	if r.Timeout == "" {
		return def, nil
	}
	d, err := time.ParseDuration(r.Timeout)
	if err != nil || d <= 0 {
		return 0, badRequestf("bad timeout %q (want a positive Go duration like \"5s\")", r.Timeout)
	}
	return d, nil
}

// graphDigest is the graph's content id in hex — graph.Digest, shared with
// the store (where it is the upload id) and the wire codec (where its raw
// bytes refuse cross-graph candidates). Inline submissions hash once per
// request; stored-graph submissions never hash at all, the id was verified
// at upload time.
func graphDigest(g *graph.Graph) string { return graph.Digest(g) }

// warmTag condenses a request's warm-start assignment for key purposes:
// jobs seeded from different previous assignments are different
// computations and must neither collide in the result cache nor pair up as
// federated partners. "-" for cold runs keeps old keys recognizable.
func warmTag(opt ff.Options) string {
	if len(opt.WarmStart) == 0 {
		return "-"
	}
	h := sha256.New()
	var buf [4]byte
	for _, a := range opt.WarmStart {
		binary.LittleEndian.PutUint32(buf[:], uint32(a))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// cacheKey identifies a computation: graph content plus every option that
// influences the result (the portfolio width changes the winner, the
// V-cycle flags change the whole search trajectory, and a warm-start seed
// changes the starting point, so all are part of the key). Options must be
// normalized — normalization clears Multilevel and CoarsenTo on methods
// that ignore them, so equivalent requests collide.
func cacheKey(digest string, opt ff.Options) string {
	return optionKey(digest, opt, true)
}

// exchangeKey pairs fanned-out federated jobs across islands: the graph
// digest plus the option fields every island sees identically. Budget and
// parallelism are deliberately excluded — both are clamped by each server's
// own config, and a fleet of different widths is legitimate (each island
// still deposits one candidate per round). The island id itself is never
// part of the key. Relayout must match across the fleet: all islands
// exchange candidates in relabeled vertex ids (the ordering is a
// deterministic function of the graph, so equal flags mean equal
// numberings).
func exchangeKey(digest string, opt ff.Options) string {
	return optionKey(digest, opt, false)
}

// optionKey writes the digest and the option fields, '|'-separated, in the
// one pinned order both keys share. withRun adds the per-server run limits
// (Budget, Parallelism) that only the cache key carries.
func optionKey(digest string, opt ff.Options, withRun bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d|%s|%d", digest, opt.Method, opt.K, opt.Objective, opt.Seed)
	if withRun {
		fmt.Fprintf(&b, "|%d", int64(opt.Budget))
	}
	fmt.Fprintf(&b, "|%d", opt.MaxSteps)
	if withRun {
		fmt.Fprintf(&b, "|%d", opt.Parallelism)
	}
	fmt.Fprintf(&b, "|%d|%d|%d|%d|%s", bit(opt.Multilevel), opt.CoarsenTo, bit(opt.MemeticCrossover), bit(opt.Relayout), warmTag(opt))
	return b.String()
}

// bit encodes a boolean option as 0 or 1.
func bit(on bool) int {
	if on {
		return 1
	}
	return 0
}
