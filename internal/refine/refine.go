// Package refine implements the local refinement methods of section 2.3:
// the Kernighan-Lin pairwise-swap bisection heuristic [20], a
// Fiduccia-Mattheyses-style single-move refinement with rollback [9] used by
// the multilevel method, and a greedy k-way boundary refinement that plays
// the role of KL for multiway (octasection) partitions.
//
// KL and FM operate on a graph plus a 0/1 side array so they can run on
// induced subgraphs inside recursive bisection without building partition
// state; the k-way pass operates on a *partition.P.
package refine

import (
	"container/heap"
	"context"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/score"
)

// useBatch keeps KWay's batched interior pre-filter on. Only
// TestKWayBatchInvariance clears it, to run the plain per-vertex scan as the
// reference the filtered sweep must match bit for bit.
var useBatch = true

// kwayBatch is the block size of KWay's interior pre-filter: one cache line
// of verdicts, evaluated in one burst over consecutive vertices — after a
// locality relayout, consecutive vertices are also adjacency-contiguous, so
// the sweep walks the CSR arrays nearly linearly.
const kwayBatch = 64

// KL and FM run at most bisectPasses improvement passes and allow a
// relative deviation of bisectImbalance from the target side weight: FM
// refuses moves that push a side beyond target*(1+bisectImbalance); KL swaps
// keep side weights nearly constant. Typed, so constant arithmetic rounds
// as run-time float64 arithmetic does.
const (
	bisectPasses            = 8
	bisectImbalance float64 = 0.05
)

// BisectOptions configures KL and FM.
type BisectOptions struct {
	// TargetWeight0 is the desired total vertex weight of side 0.
	// 0 means half of the graph's total vertex weight.
	TargetWeight0 float64
	// Ctx optionally makes the refinement cancellable: once Ctx is done no
	// further pass starts and the refinement returns with the side array in
	// a consistent (partially refined) state. Nil means never cancelled.
	Ctx context.Context
}

// cancelled reports whether ctx (possibly nil) is done; the refinement loops
// poll it at pass boundaries so the arrays they mutate stay consistent.
func cancelled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

func (o BisectOptions) withDefaults(g *graph.Graph) BisectOptions {
	if o.TargetWeight0 == 0 {
		o.TargetWeight0 = g.TotalVertexWeight() / 2
	}
	return o
}

// cutOf returns the crossing weight of a 2-way side assignment.
func cutOf(g *graph.Graph, side []int32) float64 {
	cut := 0.0
	g.ForEachEdge(func(u, v int, w float64) {
		if side[u] != side[v] {
			cut += w
		}
	})
	return cut
}

// dValues computes the KL "D" value of every vertex: external minus internal
// connection weight. Moving v to the other side changes the cut by -D[v].
func dValues(g *graph.Graph, side []int32) []float64 {
	n := g.NumVertices()
	d := make([]float64, n)
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		wts := g.Weights(v)
		for i, u := range nbrs {
			if side[u] == side[v] {
				d[v] -= wts[i]
			} else {
				d[v] += wts[i]
			}
		}
	}
	return d
}

// KL refines the bisection in side with the Kernighan-Lin algorithm:
// repeated passes of tentative best-pair swaps followed by rollback to the
// best prefix. Side weights are preserved up to vertex-weight differences of
// the swapped pairs. It returns the final crossing weight.
func KL(g *graph.Graph, side []int32, opt BisectOptions) float64 {
	opt = opt.withDefaults(g)
	n := g.NumVertices()
	if n < 2 {
		return cutOf(g, side)
	}
	// Balance bookkeeping: swaps of unequal-weight vertices may not drift
	// side 0 beyond the imbalance tolerance (plus one-heaviest-vertex slack
	// so unit-weight graphs behave exactly like classic KL).
	heaviest := 0.0
	w0 := 0.0
	for v := 0; v < n; v++ {
		if w := g.VertexWeight(v); w > heaviest {
			heaviest = w
		}
		if side[v] == 0 {
			w0 += g.VertexWeight(v)
		}
	}
	slack := bisectImbalance*g.TotalVertexWeight()/2 + heaviest

	for pass := 0; pass < bisectPasses && !cancelled(opt.Ctx); pass++ {
		d := dValues(g, side)
		locked := make([]bool, n)
		type swap struct{ a, b int }
		var seq []swap
		cum := 0.0
		bestCum, bestLen := 0.0, 0
		passW0 := w0

		pairs := min(countSide(side, 0), countSide(side, 1))
		for it := 0; it < pairs; it++ {
			// Each bestSwap scan is itself expensive on large sides, so a
			// pass polls per swap selection; breaking here falls through to
			// the rollback below, leaving the side array consistent.
			if cancelled(opt.Ctx) {
				break
			}
			a, b, gain, ok := bestSwap(g, side, d, locked, passW0, opt.TargetWeight0, slack)
			if !ok {
				break
			}
			// Tentatively swap and lock.
			locked[a], locked[b] = true, true
			applySwapD(g, side, d, a, b)
			side[a], side[b] = side[b], side[a]
			passW0 += g.VertexWeight(b) - g.VertexWeight(a)
			seq = append(seq, swap{a, b})
			cum += gain
			if cum > bestCum+1e-12 {
				bestCum, bestLen = cum, len(seq)
			}
		}
		// Roll back swaps beyond the best prefix.
		for i := len(seq) - 1; i >= bestLen; i-- {
			s := seq[i]
			side[s.a], side[s.b] = side[s.b], side[s.a]
			passW0 += g.VertexWeight(s.a) - g.VertexWeight(s.b)
		}
		w0 = passW0
		if bestLen == 0 || bestCum <= 1e-12 {
			break
		}
	}
	return cutOf(g, side)
}

func countSide(side []int32, s int32) int {
	c := 0
	for _, x := range side {
		if x == s {
			c++
		}
	}
	return c
}

// bestSwap finds the unlocked pair (a on side 0, b on side 1) maximizing
// gain = D[a] + D[b] - 2 w(a,b), using the classic sorted-D pruning: once
// D[a]+D[b] cannot beat the best gain found, the scan stops. Pairs whose
// weight difference would push side 0 outside target±slack are skipped.
func bestSwap(g *graph.Graph, side []int32, d []float64, locked []bool, w0, target0, slack float64) (a, b int, gain float64, ok bool) {
	var s0, s1 []int
	for v := range side {
		if locked[v] {
			continue
		}
		if side[v] == 0 {
			s0 = append(s0, v)
		} else {
			s1 = append(s1, v)
		}
	}
	if len(s0) == 0 || len(s1) == 0 {
		return 0, 0, 0, false
	}
	sortByDDesc(s0, d)
	sortByDDesc(s1, d)
	best := -1.0e300
	found := false
	for _, x := range s0 {
		if d[x]+d[s1[0]] <= best {
			break
		}
		for _, y := range s1 {
			bound := d[x] + d[y]
			if bound <= best {
				break
			}
			newW0 := w0 - g.VertexWeight(x) + g.VertexWeight(y)
			if newW0 < target0-slack || newW0 > target0+slack {
				continue
			}
			w, _ := g.EdgeWeight(x, y)
			if gxy := bound - 2*w; gxy > best {
				best, a, b = gxy, x, y
				found = true
			}
		}
	}
	return a, b, best, found
}

func sortByDDesc(vs []int, d []float64) {
	// Insertion sort: candidate lists are reused many times and often small.
	for i := 1; i < len(vs); i++ {
		x := vs[i]
		j := i - 1
		for j >= 0 && d[vs[j]] < d[x] {
			vs[j+1] = vs[j]
			j--
		}
		vs[j+1] = x
	}
}

// applySwapD updates D values for a tentative swap of a (side 0) and b
// (side 1). Every neighbor's D changes by ±2w depending on which endpoint it
// touches; a and b themselves are locked so their D is irrelevant.
func applySwapD(g *graph.Graph, side []int32, d []float64, a, b int) {
	for _, v := range []int{a, b} {
		nbrs := g.Neighbors(v)
		wts := g.Weights(v)
		for i, u := range nbrs {
			if int(u) == a || int(u) == b {
				continue
			}
			// v leaves side[v]: a former same-side neighbor gains external
			// weight (+2w), a former cross-side neighbor loses it (-2w).
			if side[u] == side[v] {
				d[u] += 2 * wts[i]
			} else {
				d[u] -= 2 * wts[i]
			}
		}
	}
}

// FM refines the bisection in side with single-vertex moves in best-gain
// order under a balance constraint, rolling back to the best prefix after
// each pass (Fiduccia-Mattheyses with a lazy priority queue standing in for
// integer gain buckets, since edge weights are real-valued here).
// It returns the final crossing weight.
func FM(g *graph.Graph, side []int32, opt BisectOptions) float64 {
	opt = opt.withDefaults(g)
	n := g.NumVertices()
	if n < 2 {
		return cutOf(g, side)
	}
	target := [2]float64{opt.TargetWeight0, g.TotalVertexWeight() - opt.TargetWeight0}
	maxW := [2]float64{target[0] * (1 + bisectImbalance), target[1] * (1 + bisectImbalance)}
	// Guard degenerate targets (e.g. tiny sides) with an absolute slack of
	// the heaviest vertex so progress is always possible.
	heaviest := 0.0
	for v := 0; v < n; v++ {
		if w := g.VertexWeight(v); w > heaviest {
			heaviest = w
		}
	}
	maxW[0] += heaviest
	maxW[1] += heaviest

	weight := [2]float64{}
	for v := 0; v < n; v++ {
		weight[side[v]] += g.VertexWeight(v)
	}

	for pass := 0; pass < bisectPasses && !cancelled(opt.Ctx); pass++ {
		d := dValues(g, side)
		locked := make([]bool, n)
		stamp := make([]int64, n)
		pq := &gainHeap{}
		heap.Init(pq)
		for v := 0; v < n; v++ {
			heap.Push(pq, gainItem{v: v, gain: d[v], stamp: 0})
		}
		var seq []int
		cum, bestCum, bestLen := 0.0, 0.0, 0

		pops := 0
		for pq.Len() > 0 {
			// A pass pops O(n log n) queue entries; poll periodically and
			// fall through to the rollback so the side array stays
			// consistent.
			if pops++; pops&255 == 0 && cancelled(opt.Ctx) {
				break
			}
			it := heap.Pop(pq).(gainItem)
			if locked[it.v] || it.stamp != stamp[it.v] {
				continue
			}
			from := side[it.v]
			to := 1 - from
			vw := g.VertexWeight(it.v)
			if weight[to]+vw > maxW[to] || weight[from]-vw <= 0 {
				continue // balance would break or side would empty
			}
			// Apply tentatively.
			locked[it.v] = true
			cum += d[it.v]
			nbrs := g.Neighbors(it.v)
			wts := g.Weights(it.v)
			for i, u := range nbrs {
				if locked[u] {
					continue
				}
				if side[u] == from {
					d[u] += 2 * wts[i]
				} else {
					d[u] -= 2 * wts[i]
				}
				stamp[u]++
				heap.Push(pq, gainItem{v: int(u), gain: d[u], stamp: stamp[u]})
			}
			side[it.v] = to
			weight[from] -= vw
			weight[to] += vw
			seq = append(seq, it.v)
			if cum > bestCum+1e-12 {
				bestCum, bestLen = cum, len(seq)
			}
		}
		// Roll back moves beyond the best prefix.
		for i := len(seq) - 1; i >= bestLen; i-- {
			v := seq[i]
			to := 1 - side[v]
			vw := g.VertexWeight(v)
			weight[side[v]] -= vw
			weight[to] += vw
			side[v] = to
		}
		if bestLen == 0 || bestCum <= 1e-12 {
			break
		}
	}
	return cutOf(g, side)
}

type gainItem struct {
	v     int
	gain  float64
	stamp int64
}

type gainHeap []gainItem

func (h gainHeap) Len() int            { return len(h) }
func (h gainHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h gainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x interface{}) { *h = append(*h, x.(gainItem)) }
func (h *gainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// PairwiseKL refines a multiway assignment (values 0..groups-1 in assign) by
// running 2-way KL on every pair of groups that shares at least one edge,
// holding all other groups fixed. This is how KL refinement is applied to the
// octasection rows of Table 1.
func PairwiseKL(g *graph.Graph, assign []int32, groups int, opt BisectOptions) {
	// Which group pairs are adjacent?
	adjacent := make(map[[2]int32]bool)
	g.ForEachEdge(func(u, v int, w float64) {
		a, b := assign[u], assign[v]
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		adjacent[[2]int32{a, b}] = true
	})
	for a := int32(0); a < int32(groups); a++ {
		for b := a + 1; b < int32(groups); b++ {
			if cancelled(opt.Ctx) {
				return
			}
			if !adjacent[[2]int32{a, b}] {
				continue
			}
			var verts []int32
			for v, gr := range assign {
				if gr == a || gr == b {
					verts = append(verts, int32(v))
				}
			}
			if len(verts) < 2 {
				continue
			}
			sub := graph.Induced(g, verts)
			side := make([]int32, len(verts))
			w0 := 0.0
			for i, v := range verts {
				if assign[v] == b {
					side[i] = 1
				} else {
					w0 += g.VertexWeight(int(v))
				}
			}
			o := opt
			o.TargetWeight0 = w0
			KL(sub.G, side, o)
			for i, v := range verts {
				if side[i] == 0 {
					assign[v] = a
				} else {
					assign[v] = b
				}
			}
		}
	}
}

// RelieveStarvation grows parts whose interior is starved — zero internal
// weight, or a cut-to-internal ratio above maxRatio — by absorbing their
// strongest-connected neighboring vertex, up to maxAbsorb vertices per part.
// Cut-driven methods (percolation's surface tension, k-way refinement) can
// leave such parts behind; they make Mcut/Ncut degenerate or infinite while
// being trivially repairable. Donor parts are never emptied.
func RelieveStarvation(p *partition.P, maxAbsorb int, maxRatio float64) {
	g := p.Graph()
	for _, a := range p.NonEmptyParts() {
		for absorbed := 0; absorbed < maxAbsorb; absorbed++ {
			w := p.PartInternalOrdered(a)
			cut := p.PartCut(a)
			if w > 0 && cut/w <= maxRatio {
				break
			}
			bestU, bestW := -1, 0.0
			for _, v := range p.VerticesOf(a) {
				nbrs := g.Neighbors(int(v))
				wts := g.Weights(int(v))
				for i, u := range nbrs {
					b := p.Part(int(u))
					if b == a || b == partition.Unassigned || p.PartSize(b) <= 1 {
						continue
					}
					if wts[i] > bestW {
						bestU, bestW = int(u), wts[i]
					}
				}
			}
			if bestU < 0 {
				break
			}
			p.Move(bestU, a)
		}
	}
}

// KWayOptions configures the greedy k-way boundary refinement.
type KWayOptions struct {
	// Objective to improve; defaults to Cut, matching Chaco's KL.
	Objective objective.Objective
	// Imbalance is the allowed part weight relative to the ideal share
	// (default 0.10 — k-way refinement needs more slack than bisection).
	Imbalance float64
	// MaxPasses bounds the number of sweeps (default 6).
	MaxPasses int
	// Ctx optionally makes the refinement cancellable at sweep boundaries.
	// Nil means never cancelled.
	Ctx context.Context
}

// KWay greedily moves boundary vertices to the neighboring part that most
// improves the objective, respecting balance and never emptying a part.
// It mutates p in place and returns the final objective value.
//
// Candidate moves are scored through a score.Tracker: each candidate costs
// one O(deg v) hypothetical evaluation (score.Tracker.MoveValue) instead of
// the Move + full O(k) Objective.Evaluate + un-Move scan this loop used to
// pay, so a sweep is O(n·deg) rather than O(n·deg·k).
//
// Part-count invariant: maxW is derived from p.NumParts() at entry only,
// and that is sound because a sweep can never change the part count — the
// PartSize guard below refuses to move the last vertex out of a part, and
// every destination is a neighbor's (hence non-empty) part, so no part is
// emptied and no new part appears. KWay therefore returns with exactly as
// many non-empty parts as it started with.
func KWay(p *partition.P, opt KWayOptions) float64 {
	if opt.Imbalance == 0 {
		opt.Imbalance = 0.10
	}
	if opt.MaxPasses == 0 {
		opt.MaxPasses = 6
	}
	g := p.Graph()
	n := g.NumVertices()
	k := p.NumParts()
	if k < 2 {
		return opt.Objective.Evaluate(p)
	}
	maxW := g.TotalVertexWeight() / float64(k) * (1 + opt.Imbalance)
	tr := score.NewTracker(p, opt.Objective, 0)
	cur := tr.Value()

	// Reusable candidate scratch: mark[b] == stamp means part b has already
	// been collected for the current vertex, and connW[b] accumulates v's
	// edge weight into b during the same scan. One allocation per KWay call
	// replaces the map[int]bool plus cands slice the old loop allocated for
	// every vertex of every pass — and with the connections in hand, each
	// candidate is evaluated in O(1) (MoveValueConn) instead of re-scanning
	// v's neighborhood per candidate.
	mark := make([]int64, p.Capacity())
	connW := make([]float64, p.Capacity())
	cands := make([]int, 0, 16)
	stamp := int64(0)

	// Batched interior pre-filter: most vertices of a refined partition are
	// interior (every neighbor in their own part), and the per-vertex loop
	// below spends its time discovering that one weighted adjacency scan at a
	// time. Each kwayBatch-aligned block instead runs one compare-only sweep
	// (score.NeighborsAllIn over the int16 part mirror) whose verdicts let
	// the sweep skip interior vertices without touching the stamp/connW
	// bookkeeping. A verdict is trusted only while no move has been
	// committed since its block was evaluated — a committed move can turn
	// an interior vertex into a boundary one — so skipped vertices are
	// exactly those the unbatched scan would have left unmoved, and the
	// refined partition is bit-identical with the pre-filter on or off
	// (TestKWayBatchInvariance pins this).
	var allIn [kwayBatch]bool
	committed := 0
	for pass := 0; pass < opt.MaxPasses && !cancelled(opt.Ctx); pass++ {
		improved := false
		blockStart := -1
		blockMoves := 0
		for v := 0; v < n; v++ {
			// A pass over a large graph is still long; poll mid-pass too.
			if v&511 == 0 && cancelled(opt.Ctx) {
				return cur
			}
			if useBatch {
				if b := v &^ (kwayBatch - 1); b != blockStart {
					blockStart = b
					blockMoves = committed
					end := b + kwayBatch
					if end > n {
						end = n
					}
					for j := b; j < end; j++ {
						allIn[j-b] = score.NeighborsAllIn(p, j, p.Part(j))
					}
				}
				if committed == blockMoves && allIn[v-blockStart] {
					continue // interior: the scan below would find no candidate
				}
			}
			from := p.Part(v)
			if p.PartSize(from) <= 1 {
				continue
			}
			// Candidate parts (those v is connected to) and the connection
			// weight to each, in a single adjacency scan.
			stamp++
			mark[from] = stamp
			connW[from] = 0
			cands = cands[:0]
			assigned := 0.0
			wts := g.Weights(v)
			for i, u := range g.Neighbors(v) {
				b := p.Part(int(u))
				if b == partition.Unassigned {
					continue
				}
				w := wts[i]
				assigned += w
				if mark[b] != stamp {
					mark[b] = stamp
					connW[b] = 0
					cands = append(cands, b)
				}
				connW[b] += w
			}
			vw := g.VertexWeight(v)
			bestPart, bestVal := -1, cur
			for _, to := range cands {
				if p.PartVertexWeight(to)+vw > maxW {
					continue
				}
				val := tr.MoveValueConn(v, from, to,
					connW[from], connW[to], assigned-connW[from]-connW[to])
				if val < bestVal-1e-12 {
					bestVal, bestPart = val, to
				}
			}
			if bestPart >= 0 {
				tr.Apply(v, bestPart)
				cur = tr.Value()
				improved = true
				committed++
			}
		}
		if !improved {
			break
		}
	}
	return cur
}
