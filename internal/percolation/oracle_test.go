package percolation

import (
	"container/heap"
	"context"
	"math"

	"repro/internal/engine"
	"repro/internal/graph"
)

// The percolation kernels as they stood on container/heap with boxed items,
// kept as test oracles for the typed frontHeap: the growth phase and the
// free bisection must reproduce them bit for bit, tie order included.

// oracleBalancedGrowth is balancedGrowth on container/heap.
func oracleBalancedGrowth(ctx context.Context, g *graph.Graph, seeds []int, logHalfMean float64) ([]int32, []float64) {
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
	for _, capFactor := range phases {
		if claimedTotal >= g.TotalVertexWeight() {
			break
		}
		capVW := capFactor * idealVW
		pq := &oracleGrowHeap{}
		heap.Init(pq)
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
					heap.Push(pq, oracleGrowItem{
						v:    int(u),
						c:    c,
						bond: bondVal[v] + math.Log(wts[i]) - logHalfMean,
					})
				}
			}
		}
		for pq.Len() > 0 {
			// Cancellation abandons the growth mid-flood; the caller
			// discards the partial coloring and returns ctx.Err().
			if poll.Due() {
				return color, bondVal
			}
			it := heap.Pop(pq).(oracleGrowItem)
			if color[it.v] >= 0 {
				continue
			}
			vw := g.VertexWeight(it.v)
			if claimedVW[it.c]+vw > capVW {
				continue // this liquid is full for the current phase
			}
			color[it.v] = it.c
			bondVal[it.v] = it.bond
			claimedVW[it.c] += vw
			claimedTotal += vw
			nbrs := g.Neighbors(it.v)
			wts := g.Weights(it.v)
			for i, u := range nbrs {
				if color[u] < 0 {
					heap.Push(pq, oracleGrowItem{
						v:    int(u),
						c:    it.c,
						bond: it.bond + math.Log(wts[i]) - logHalfMean,
					})
				}
			}
		}
	}
	return color, bondVal
}

type oracleGrowItem struct {
	v    int
	c    int32
	bond float64
}

type oracleGrowHeap []oracleGrowItem

func (h oracleGrowHeap) Len() int            { return len(h) }
func (h oracleGrowHeap) Less(i, j int) bool  { return h[i].bond > h[j].bond }
func (h oracleGrowHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleGrowHeap) Push(x interface{}) { *h = append(*h, x.(oracleGrowItem)) }
func (h *oracleGrowHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// oraclePropagate is Splitter.propagate on container/heap: the free sweep
// the old Bisect used, flowing through every vertex.
func oraclePropagate(g *graph.Graph, seed int, logHalfMean float64, bond []float64) {
	n := g.NumVertices()
	done := make([]bool, n)
	for v := 0; v < n; v++ {
		bond[v] = math.Inf(-1)
	}
	pq := &oracleBondHeap{}
	heap.Init(pq)
	heap.Push(pq, oracleBondItem{v: seed, bond: 0})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(oracleBondItem)
		if done[it.v] {
			continue // a stronger front already claimed this vertex
		}
		done[it.v] = true
		bond[it.v] = it.bond
		nbrs := g.Neighbors(it.v)
		wts := g.Weights(it.v)
		for i, u := range nbrs {
			if !done[u] {
				heap.Push(pq, oracleBondItem{
					v:    int(u),
					bond: it.bond + math.Log(wts[i]) - logHalfMean,
				})
			}
		}
	}
}

type oracleBondItem struct {
	v    int
	bond float64
}

type oracleBondHeap []oracleBondItem

func (h oracleBondHeap) Len() int            { return len(h) }
func (h oracleBondHeap) Less(i, j int) bool  { return h[i].bond > h[j].bond }
func (h oracleBondHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleBondHeap) Push(x interface{}) { *h = append(*h, x.(oracleBondItem)) }
func (h *oracleBondHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// oracleBisect is Bisect as two free oraclePropagate sweeps.
func oracleBisect(g *graph.Graph, seedA, seedB int) []int32 {
	n := g.NumVertices()
	side := make([]int32, n)
	if seedA == seedB || n < 2 {
		return side
	}
	logHalfMean := logDamping(g)
	bondA := make([]float64, n)
	bondB := make([]float64, n)
	oraclePropagate(g, seedA, logHalfMean, bondA)
	oraclePropagate(g, seedB, logHalfMean, bondB)
	for v := 0; v < n; v++ {
		if bondB[v] > bondA[v] {
			side[v] = 1
		}
	}
	side[seedA], side[seedB] = 0, 1
	return side
}
