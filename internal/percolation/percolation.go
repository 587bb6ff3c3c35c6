// Package percolation implements the paper's percolation heuristic
// (section 4.4): k colored liquids start from k seed vertices and spread
// through the graph; a vertex joins the color whose liquid reaches it with
// the strongest bond, bonds are recomputed over the current territories each
// round, and the process stops when no vertex changes color.
//
// The paper writes the bond of a path from seed c_i to v as
//
//	bond(v, Pi) = sum over path edges e of w(e) / 2^d(e)
//
// with d(e) the hop distance of e from the seed. Taken literally this sum
// grows with every extra (positive) term, so on uniform weights the most
// distant seed would win every comparison — the opposite of a dripping
// liquid. We therefore compose the same per-edge factor multiplicatively:
//
//	bond(v) = bond(u) * w(u,v) / (2 * wMean)        (bond(c_i) = 1)
//
// computed in log domain. Strength halves per average-weight hop (the
// paper's 2^d damping), heavy corridors damp less and so attract the liquid,
// and bonds decay with distance as the physical picture demands. Fronts
// expand strongest-first via a priority queue; each round a liquid may only
// flow through its own territory, claiming frontier vertices by bond.
//
// Percolation is Table 1's "Percolation" row, initializes simulated
// annealing and the ant colony (figure 1), and cuts atoms in two during
// fusion-fission.
package percolation

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/rng"
)

// Options configures Partition.
type Options struct {
	// Seeds optionally fixes the k starting vertices. When nil, seeds are
	// chosen by greedy farthest-point traversal from a random start.
	Seeds []int
	// MaxRounds adds recompute-reassign rounds after the balanced growth.
	// The growth phase already runs the percolation to a stable covering,
	// so the default is 0 (none); reassignment rounds progressively let
	// heavy corridors re-flood the map and are kept only for
	// experimentation.
	MaxRounds int
	// Seed drives the random start of automatic seed selection.
	Seed int64
}

// Partition colors g with k liquids and returns the resulting partition.
func Partition(g *graph.Graph, k int, opt Options) (*partition.P, error) {
	return PartitionContext(context.Background(), g, k, opt)
}

// PartitionContext is Partition under cooperative cancellation: the growth
// phases, fixed-point rounds and boundary refinement poll ctx and the call
// returns ctx.Err() once it fires. No partial partition is returned.
func PartitionContext(ctx context.Context, g *graph.Graph, k int, opt Options) (*partition.P, error) {
	n := g.NumVertices()
	if k < 1 || k > n {
		return nil, fmt.Errorf("percolation: k=%d out of range [1,%d]", k, n)
	}
	seeds := opt.Seeds
	if seeds == nil {
		r := rng.New(opt.Seed)
		seeds = graph.FarthestPointSeeds(g, r.Intn(n), k)
		// Disconnected graphs can yield fewer seeds; fill with unused
		// vertices so every color exists.
		used := make(map[int]bool, len(seeds))
		for _, s := range seeds {
			used[s] = true
		}
		for v := 0; v < n && len(seeds) < k; v++ {
			if !used[v] {
				seeds = append(seeds, v)
				used[v] = true
			}
		}
	}
	if len(seeds) != k {
		return nil, fmt.Errorf("percolation: got %d seeds for k=%d", len(seeds), k)
	}
	seen := make(map[int]bool, k)
	for _, s := range seeds {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("percolation: seed %d out of range", s)
		}
		if seen[s] {
			return nil, fmt.Errorf("percolation: duplicate seed %d", s)
		}
		seen[s] = true
	}

	poll := engine.NewPoll(ctx, 1)
	if poll.Due() {
		return nil, poll.Err()
	}

	maxRounds := opt.MaxRounds
	logHalfMean := logDamping(g)

	// Phase 1 — balanced simultaneous growth. All liquids expand through a
	// single strongest-front queue (equal volumes of liquid dripping at
	// once): each claim colors a vertex immediately, and a liquid that has
	// filled its share stops until the volume caps are lifted. Without the
	// caps one liquid follows the heavy corridors across the whole map and
	// the rounds below can only erode it a frontier layer at a time.
	color, _ := balancedGrowth(ctx, g, seeds, logHalfMean)
	if poll.Due() {
		return nil, poll.Err()
	}

	// Phase 2 — the paper's fixed-point rounds: recompute every liquid's
	// bonds over its current territory and reassign each vertex to the
	// strongest, stopping when no vertex changes color. Hydrostatic
	// pressure — a log-domain discount on overfull liquids' bonds — keeps
	// the fixed point from re-flooding the heavy corridors that the
	// balanced growth phase just contained.
	const pressure = 4.0
	idealVW := g.TotalVertexWeight() / float64(k)
	bonds := make([][]float64, k)
	for i := range bonds {
		bonds[i] = make([]float64, n)
	}
	regionVW := make([]float64, k)
	for v := 0; v < n; v++ {
		if color[v] >= 0 {
			regionVW[color[v]] += g.VertexWeight(v)
		}
	}
	for round := 0; round < maxRounds; round++ {
		if poll.Due() {
			return nil, poll.Err()
		}
		for i := 0; i < k; i++ {
			propagate(g, seeds[i], int32(i), color, logHalfMean, bonds[i])
		}
		discount := make([]float64, k)
		for i := 0; i < k; i++ {
			if over := regionVW[i]/idealVW - 1.15; over > 0 {
				discount[i] = pressure * over
			}
		}
		changed := false
		for v := 0; v < n; v++ {
			best := color[v]
			bestBond := math.Inf(-1)
			if best >= 0 {
				bestBond = bonds[best][v] - discount[best]
			}
			for i := 0; i < k; i++ {
				if b := bonds[i][v] - discount[i]; b > bestBond {
					best, bestBond = int32(i), b
				}
			}
			if best != color[v] && best >= 0 {
				vw := g.VertexWeight(v)
				regionVW[color[v]] -= vw
				regionVW[best] += vw
				color[v] = best
				changed = true
			}
		}
		for i, s := range seeds {
			color[s] = int32(i) // seeds never change color
		}
		if !changed {
			break
		}
	}

	// Vertices never reached by any liquid (components without a seed):
	// spread them across colors so no part is overloaded arbitrarily.
	for v := 0; v < n; v++ {
		if color[v] < 0 {
			color[v] = int32(v % k)
		}
	}
	p, err := partition.FromAssignment(g, color, k)
	if err != nil {
		return nil, err
	}
	// Surface tension: when two liquids meet head-on along a heavy corridor
	// the raw fronts leave the border ON the corridor; a short greedy
	// boundary pass lets the border relax onto weak edges, which is where
	// any liquid interface settles physically.
	refine.KWay(p, refine.KWayOptions{
		Objective: objective.Cut, MaxPasses: 2, Imbalance: 0.25, Ctx: ctx,
	})
	if poll.Due() {
		return nil, poll.Err()
	}
	// Last: guarantee every region an internal edge so Ncut/Mcut stay
	// finite (the boundary pass may strip a region back to a star), and let
	// severely starved regions (interface weight far above their interior)
	// drink from their strongest bonds.
	growSingletons(p)
	refine.RelieveStarvation(p, 6, 20)
	return p, nil
}

// growSingletons guarantees every region at least one internal edge (so the
// Ncut/Mcut objectives stay finite): any region whose interior is empty —
// a singleton, or several mutually non-adjacent vertices — pulls in the
// neighbor it is most strongly bonded to, taken from a donor region that
// can spare a vertex.
func growSingletons(p *partition.P) {
	g := p.Graph()
	for _, a := range p.NonEmptyParts() {
		if p.PartInternalOrdered(a) > 0 {
			continue
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
		if bestU >= 0 {
			p.Move(bestU, a)
		}
	}
}

// balancedGrowth expands all liquids simultaneously through one global
// strongest-front priority queue. Per-phase volume caps (1.15x, then 1.5x,
// 2.5x, then unlimited multiples of the ideal share) keep any single liquid
// from flooding the map along heavy corridors; later phases only run if
// vertices remain unclaimed. Returns the coloring and each claimed vertex's
// log-domain bond.
func balancedGrowth(ctx context.Context, g *graph.Graph, seeds []int, logHalfMean float64) ([]int32, []float64) {
	poll := engine.NewPoll(ctx, 4096)
	n := g.NumVertices()
	k := len(seeds)
	color := make([]int32, n)
	bondVal := make([]float64, n)
	for v := range color {
		color[v] = -1
		bondVal[v] = math.Inf(-1)
	}
	idealVW := g.TotalVertexWeight() / float64(k)
	claimedVW := make([]float64, k)
	claimedTotal := 0.0
	for i, s := range seeds {
		color[s] = int32(i)
		bondVal[s] = 0
		claimedVW[i] = g.VertexWeight(s)
		claimedTotal += g.VertexWeight(s)
	}

	phases := []float64{1.15, 1.3, 1.5, 1.8, 2.2, 3, 5, math.Inf(1)}
	var pq frontHeap // drained by every completed phase, so reused as is
	for _, capFactor := range phases {
		if claimedTotal >= g.TotalVertexWeight() {
			break
		}
		capVW := capFactor * idealVW
		// Seed the queue with every frontier arc of every liquid.
		for v := 0; v < n; v++ {
			c := color[v]
			if c < 0 {
				continue
			}
			nbrs := g.Neighbors(v)
			wts := g.Weights(v)
			for i, u := range nbrs {
				if color[u] < 0 {
					pq.push(front{v: u, c: c, bond: bondVal[v] + math.Log(wts[i]) - logHalfMean})
				}
			}
		}
		for len(pq) > 0 {
			// Cancellation abandons the growth mid-flood; the caller
			// discards the partial coloring and returns ctx.Err().
			if poll.Due() {
				return color, bondVal
			}
			it := pq.pop()
			if color[it.v] >= 0 {
				continue
			}
			vw := g.VertexWeight(int(it.v))
			if claimedVW[it.c]+vw > capVW {
				continue // this liquid is full for the current phase
			}
			color[it.v] = it.c
			bondVal[it.v] = it.bond
			claimedVW[it.c] += vw
			claimedTotal += vw
			nbrs := g.Neighbors(int(it.v))
			wts := g.Weights(int(it.v))
			for i, u := range nbrs {
				if color[u] < 0 {
					pq.push(front{v: u, c: it.c, bond: it.bond + math.Log(wts[i]) - logHalfMean})
				}
			}
		}
	}
	return color, bondVal
}

// logDamping returns log(2 * mean edge weight), the per-hop log-domain
// damping divisor.
func logDamping(g *graph.Graph) float64 {
	if g.NumEdges() == 0 {
		return math.Log(2)
	}
	mean := g.TotalEdgeWeight() / float64(g.NumEdges())
	return math.Log(2 * mean)
}

// propagate computes log-domain bonds from the seed by strongest-front
// expansion within the liquid's own territory: it can bond to (and later
// claim) frontier vertices of any color, but flows on only through the seed,
// its own color and unclaimed vertices. Unreached vertices get -Inf. The
// free sweep of Bisect is Splitter.propagate.
func propagate(g *graph.Graph, seed int, self int32, color []int32, logHalfMean float64, bond []float64) {
	n := g.NumVertices()
	done := make([]bool, n)
	for v := 0; v < n; v++ {
		bond[v] = math.Inf(-1)
	}
	var pq frontHeap
	pq.push(front{v: int32(seed)})
	for len(pq) > 0 {
		it := pq.pop()
		if done[it.v] {
			continue // a stronger front already claimed this vertex
		}
		done[it.v] = true
		bond[it.v] = it.bond
		// The liquid continues through this vertex only if it may flow here.
		if int(it.v) != seed && color[it.v] != self && color[it.v] != -1 {
			continue
		}
		nbrs := g.Neighbors(int(it.v))
		wts := g.Weights(int(it.v))
		for i, u := range nbrs {
			if !done[u] {
				pq.push(front{v: u, bond: it.bond + math.Log(wts[i]) - logHalfMean})
			}
		}
	}
}
