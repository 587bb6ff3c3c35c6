// Package coarsen implements the graph-coarsening substrate shared by the
// multilevel partitioner, the multilevel RQI eigensolver, the V-cycle
// metaheuristic driver (package vcycle) and the memetic recombination:
// repeated contraction of heavy-edge matchings, preserving vertex weights
// and accumulating parallel edge weights, into a Hierarchy that every
// multilevel walk reads through Coarsest and GraphAt. Cutoff is the V-cycle
// cutoff rule.
//
// Contraction loses no weight: an edge that ends up inside a coarse vertex
// is folded into that vertex's self-loop weight (graph.Builder.AddSelfLoop),
// and self-loop weight already present on the finer level is carried along.
// Package partition counts self-loops toward part internal weight, so the
// Cut, Ncut and Mcut of a coarse partition equal those of its projection to
// any finer level exactly — which is what lets a metaheuristic optimize the
// true objective while searching the coarsest graph.
package coarsen

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Level is one rung of the coarsening ladder: the coarse graph together with
// the mapping from the previous (finer) graph's vertices to coarse vertices.
type Level struct {
	G   *graph.Graph
	Map []int32 // fine vertex id -> coarse vertex id
}

// Project maps a partition of this level's coarse graph back onto the finer
// level: fine vertex v inherits the part of the coarse vertex it contracted
// into. The result has one entry per finer-level vertex; coarse is not
// modified. Because contraction folds internal weight into self-loops, the
// projected partition has identical Cut, Ncut and Mcut (and the same
// non-empty parts) as the coarse one.
func (l Level) Project(coarse []int32) []int32 {
	fine := make([]int32, len(l.Map))
	for v := range fine {
		fine[v] = coarse[l.Map[v]]
	}
	return fine
}

// Hierarchy is a coarsening ladder: the input graph and its successive
// contractions, finest to coarsest. It is read-only once built, so one
// hierarchy may be shared by every worker of a portfolio — they then refine
// partitions of the identical graphs, which is what makes level-boundary
// incumbent exchange meaningful.
type Hierarchy struct {
	// Fine is the original input graph.
	Fine *graph.Graph
	// Levels is the ladder from finest to coarsest; Levels[i].Map sends the
	// vertices of GraphAt(i) onto Levels[i].G. Empty when Fine is already at
	// or below the cutoff.
	Levels []Level
}

// Coarsest returns the smallest graph of the hierarchy (Fine when no
// coarsening happened).
func (h *Hierarchy) Coarsest() *graph.Graph { return h.GraphAt(len(h.Levels)) }

// GraphAt returns the finer graph that level li projects onto: Fine for
// li == 0, the previous level's coarse graph otherwise.
func (h *Hierarchy) GraphAt(li int) *graph.Graph {
	if li == 0 {
		return h.Fine
	}
	return h.Levels[li-1].G
}

// Cutoff is the coarsening cutoff of a k-way V-cycle: coarsenTo vertices,
// or for coarsenTo <= 0 a default of max(8k, 128) — large enough that the
// coarsest graph keeps real structure around k parts, small enough that
// search steps there are cheap. Either is clamped to at least 2k so the
// coarsest graph always has more than k vertices.
func Cutoff(coarsenTo, k int) int {
	if coarsenTo <= 0 {
		coarsenTo = max(8*k, 128)
	}
	return max(coarsenTo, 2*k)
}

// HEMContext repeatedly contracts a heavy-edge matching (Hendrickson-Leland
// / Karypis-Kumar style) until the graph has at most minSize vertices or the
// reduction stalls. Each level — one O(m) matching-plus-contraction pass,
// the natural step boundary — polls ctx, and the call returns ctx.Err()
// once it fires. No partial hierarchy is returned.
func HEMContext(ctx context.Context, g *graph.Graph, minSize int, seed int64) (*Hierarchy, error) {
	h, _, err := HEMProtected(ctx, g, minSize, seed, nil)
	return h, err
}

// HEMProtected is HEMContext with cut-edge protection: guides are complete
// vertex labelings of g (typically the two parent assignments of a memetic
// recombination), and an edge whose endpoints disagree under ANY guide is
// protected — the matcher never contracts it, at any level, so every guide's
// cut structure survives to the coarsest graph intact.
//
// Because contraction only ever merges vertices that agree under every
// guide, each coarse vertex is homogeneous with respect to all guides; the
// guides therefore project level by level (a coarse vertex inherits its
// constituents' shared label), and the returned coarseGuides are the input
// guides restated on the coarsest graph. Combined with the self-loop
// folding of contract, a guide's Cut, Ncut and Mcut on the coarsest graph
// equal its values on g exactly, so refinement at any level optimizes the
// true fine-graph objective.
//
// Coarsening stops at minSize vertices, when protection leaves no
// contractible edge, or when the reduction stalls; guides with a label set
// of k parts bound the coarsest size from below by roughly the number of
// connected intersection blocks of the guides (at most k^len(guides) for
// two k-way parents), which is the operator's point: the coarsest graph IS
// the overlay of the parent cuts.
func HEMProtected(ctx context.Context, g *graph.Graph, minSize int, seed int64, guides [][]int32) (h *Hierarchy, coarseGuides [][]int32, err error) {
	for i, gd := range guides {
		if len(gd) != g.NumVertices() {
			return nil, nil, fmt.Errorf("coarsen: guide %d has %d labels for %d vertices", i, len(gd), g.NumVertices())
		}
	}
	r := rng.New(seed)
	h = &Hierarchy{Fine: g}
	cur := g
	coarseGuides = guides
	for cur.NumVertices() > minSize {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		match := heavyEdgeMatchingWorkers(cur, r, protectCuts(coarseGuides), matchWorkers(cur.NumVertices()))
		coarse, toCoarse := contract(cur, match)
		if coarse.NumVertices() >= cur.NumVertices() {
			break // no contractible (unprotected) edge left
		}
		h.Levels = append(h.Levels, Level{G: coarse, Map: toCoarse})
		coarseGuides = projectGuides(coarseGuides, toCoarse, coarse.NumVertices())
		if float64(coarse.NumVertices()) > 0.95*float64(cur.NumVertices()) {
			break // diminishing returns; stop coarsening
		}
		cur = coarse
	}
	return h, coarseGuides, nil
}

// protectCuts protects the edges whose endpoints disagree under any guide;
// nil (protect nothing) without guides.
func protectCuts(guides [][]int32) Protect {
	if len(guides) == 0 {
		return nil
	}
	return func(u, v int) bool {
		for _, gd := range guides {
			if gd[u] != gd[v] {
				return true
			}
		}
		return false
	}
}

// projectGuides restates fine-level guides on the coarse graph: every fine
// vertex of a coarse vertex shares each guide's label (the protection
// invariant), so the coarse label is simply any constituent's.
func projectGuides(guides [][]int32, toCoarse []int32, nc int) [][]int32 {
	out := make([][]int32, len(guides))
	for i, gd := range guides {
		cg := make([]int32, nc)
		for v, c := range toCoarse {
			cg[c] = gd[v]
		}
		out[i] = cg
	}
	return out
}

// Protect forbids the matcher from contracting specific edges: when
// Protect(u, v) reports true the edge {u, v} is skipped by every candidate
// scan, so u and v can never be merged into one coarse vertex. The memetic
// recombination operator protects the edges cut by either parent partition;
// nil protects nothing. A Protect function must be symmetric and stable for
// the duration of one matching pass.
type Protect func(u, v int) bool

// matchWorkers picks the speculative-scan worker count for an n-vertex
// graph: GOMAXPROCS, or one goroutine below parallelMatchMin where spawn
// overhead exceeds the scan work. The matching is bit-identical either way.
func matchWorkers(n int) int {
	workers := runtime.GOMAXPROCS(0)
	if n < parallelMatchMin {
		workers = 1
	}
	return workers
}

// heavyEdgeMatchingWorkers visits vertices in random order and matches each
// unmatched vertex with its unmatched, unprotected neighbor of maximum edge
// weight; match[v] == v for unmatched vertices. The speculative worker
// count is explicit so tests can pin it.
//
// The matching is computed speculate-then-commit so the O(m) neighbor scans
// — the V-cycle's serial prefix — run on every core while the result stays
// bit-identical to the serial algorithm for ANY worker count. At the start
// of a pass every vertex is unmatched, so each vertex's first candidate (its
// heaviest eligible neighbor under the serial scan's first-index-of-maximum
// tie-break) is a pure function of the graph and the protection mask;
// speculateHeaviest computes them in parallel. The commit pass then walks
// the random order exactly as the serial code did: a speculative candidate
// that is still unmatched IS the serial choice — the unmatched set only
// shrinks during a pass and the protection mask never changes, so the
// heaviest eligible neighbor in the start-of-pass superset, if still
// unmatched, is also the first-index maximum over the current subset — and
// a candidate that was matched in the meantime falls back to the serial
// rescan. Protected edges are excluded from both scans symmetrically, so a
// protected pair can never commit.
func heavyEdgeMatchingWorkers(g *graph.Graph, r *rand.Rand, protect Protect, workers int) []int32 {
	n := g.NumVertices()
	match := make([]int32, n)
	for v := range match {
		match[v] = int32(v)
	}
	order := make([]int, n)
	rng.Perm(r, order)
	spec := speculateHeaviest(g, protect, workers)
	for _, v := range order {
		if match[v] != int32(v) {
			continue
		}
		best := int(spec[v])
		if best >= 0 && match[best] != int32(best) {
			best = rescanHeaviest(g, match, protect, v)
		}
		if best >= 0 {
			match[v] = int32(best)
			match[best] = int32(v)
		}
	}
	return match
}

// parallelMatchMin is the vertex count below which speculateHeaviest stays
// on one goroutine: under it, spawn and synchronization overhead exceeds
// the scan work. The result is schedule-independent either way.
const parallelMatchMin = 4096

// speculateHeaviest returns, per vertex, the neighbor the serial heavy-edge
// scan would pick on an all-unmatched graph: the first index of the maximum
// edge weight among eligible (unprotected, non-self) edges, -1 for vertices
// with no eligible neighbor. Pure function of (g, protect), computed on
// contiguous vertex ranges across the given worker count; each worker
// writes a disjoint slice range, so the output is deterministic for any
// schedule and any worker count.
func speculateHeaviest(g *graph.Graph, protect Protect, workers int) []int32 {
	n := g.NumVertices()
	spec := make([]int32, n)
	scan := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nbrs := g.Neighbors(v)
			wts := g.Weights(v)
			best, bestW := -1, 0.0
			if protect == nil {
				for i, u := range nbrs {
					if int(u) != v && wts[i] > bestW {
						best, bestW = int(u), wts[i]
					}
				}
			} else {
				for i, u := range nbrs {
					if int(u) != v && wts[i] > bestW && !protect(v, int(u)) {
						best, bestW = int(u), wts[i]
					}
				}
			}
			spec[v] = int32(best)
		}
	}
	if workers <= 1 || n < workers {
		scan(0, n)
		return spec
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scan(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return spec
}

// rescanHeaviest is the serial fallback when a speculative candidate was
// matched before v's turn: the original scan over currently unmatched,
// unprotected neighbors, first-index-of-maximum tie-break.
func rescanHeaviest(g *graph.Graph, match []int32, protect Protect, v int) int {
	nbrs := g.Neighbors(v)
	wts := g.Weights(v)
	best, bestW := -1, 0.0
	for i, u := range nbrs {
		if match[u] == u && int(u) != v && wts[i] > bestW &&
			(protect == nil || !protect(v, int(u))) {
			best, bestW = int(u), wts[i]
		}
	}
	return best
}

// contract merges each matched pair into one coarse vertex. Coarse vertex
// weights are the sums of their constituents; parallel coarse edges are
// accumulated; the weight of a contracted edge — which can never be cut
// again — is folded into the coarse vertex's self-loop weight, together
// with any self-loop weight the constituents carried from earlier levels.
func contract(g *graph.Graph, match []int32) (*graph.Graph, []int32) {
	n := g.NumVertices()
	toCoarse := make([]int32, n)
	for v := range toCoarse {
		toCoarse[v] = -1
	}
	nc := int32(0)
	for v := 0; v < n; v++ {
		if toCoarse[v] >= 0 {
			continue
		}
		toCoarse[v] = nc
		if m := int(match[v]); m != v && toCoarse[m] < 0 {
			toCoarse[m] = nc
		}
		nc++
	}
	b := graph.NewBuilder(int(nc))
	vw := make([]float64, nc)
	for v := 0; v < n; v++ {
		vw[toCoarse[v]] += g.VertexWeight(v)
	}
	for c, w := range vw {
		b.SetVertexWeight(c, w)
	}
	g.ForEachEdge(func(u, v int, w float64) {
		cu, cv := toCoarse[u], toCoarse[v]
		if cu != cv {
			b.AddEdge(int(cu), int(cv), w)
		} else {
			b.AddSelfLoop(int(cu), w)
		}
	})
	if g.HasLoops() {
		for v := 0; v < n; v++ {
			if l := g.VertexLoop(v); l > 0 {
				b.AddSelfLoop(int(toCoarse[v]), l)
			}
		}
	}
	return b.MustBuild(), toCoarse
}
