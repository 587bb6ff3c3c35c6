package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// oracleBuild is the reference construction Builder.Build must reproduce
// bit for bit: a stable (u, v) comparison sort of the edge list, an in-place
// merge of parallel edges in insertion order, then the CSR fill. It reads
// b's pending state without consuming it.
func oracleBuild(b *Builder) *Graph {
	n := b.n
	list := append([]builderEdge(nil), b.edges...)
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].u != list[j].u {
			return list[i].u < list[j].u
		}
		return list[i].v < list[j].v
	})
	merged := list[:0]
	for _, e := range list {
		if k := len(merged); k > 0 && merged[k-1].u == e.u && merged[k-1].v == e.v {
			merged[k-1].w += e.w
			continue
		}
		merged = append(merged, e)
	}
	list = merged
	m := len(list)
	g := &Graph{
		xadj:   make([]int32, n+1),
		adjncy: make([]int32, 2*m),
		adjwgt: make([]float64, 2*m),
		arcEID: make([]int32, 2*m),
		eu:     make([]int32, m),
		ev:     make([]int32, m),
		ewgt:   make([]float64, m),
		vwgt:   append(make([]float64, 0, n), b.vwgt...),
		wdeg:   make([]float64, n),
		unitEW: true,
		unitVW: true,
	}
	if b.lwgt != nil {
		g.lwgt = append(make([]float64, 0, n), b.lwgt...)
	}
	for _, w := range g.lwgt {
		g.totLW += w
	}
	for _, e := range list {
		g.xadj[e.u+1]++
		g.xadj[e.v+1]++
	}
	for v := 0; v < n; v++ {
		g.xadj[v+1] += g.xadj[v]
	}
	pos := append([]int32(nil), g.xadj[:n]...)
	for id, e := range list {
		g.eu[id], g.ev[id], g.ewgt[id] = e.u, e.v, e.w
		for _, arc := range [2][2]int32{{e.u, e.v}, {e.v, e.u}} {
			g.adjncy[pos[arc[0]]] = arc[1]
			g.adjwgt[pos[arc[0]]] = e.w
			g.arcEID[pos[arc[0]]] = int32(id)
			pos[arc[0]]++
		}
		g.totW += e.w
		if e.w != 1 {
			g.unitEW = false
		}
	}
	for v, w := range g.vwgt {
		g.totVW += w
		if w != 1 {
			g.unitVW = false
		}
		for _, aw := range g.adjwgt[g.xadj[v]:g.xadj[v+1]] {
			g.wdeg[v] += aw
		}
	}
	return g
}

// requireOracle builds b both ways and fails unless the graphs are deeply
// equal, float bits included.
func requireOracle(t *testing.T, name string, b *Builder) *Graph {
	t.Helper()
	want := oracleBuild(b)
	got, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Build differs from the stable-sort oracle (n=%d m=%d vs %d)",
			name, got.NumVertices(), got.NumEdges(), want.NumEdges())
	}
	return got
}

// randomBuilder fills a builder with a random multigraph: runs of 3 to 5
// parallel edges with fractional weights (so merge order shows in the float
// sums), endpoints given in either order, optional vertex and self-loop
// weights, and isolated vertices whenever few edges are drawn. With sorted
// set, the edges are added in (u, v) order to exercise the presorted path.
func randomBuilder(rng *rand.Rand, n int, sorted bool) *Builder {
	b := NewBuilder(n)
	if n < 2 {
		return b
	}
	unit := rng.Intn(3) == 0
	weight := func() float64 {
		if unit {
			return 1
		}
		return 0.1 + 10*rng.Float64()
	}
	var list []builderEdge
	for i, l := 0, rng.Intn(4*n+1); i < l; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		reps := 1
		if rng.Intn(4) == 0 {
			reps = 3 + rng.Intn(3)
		}
		for r := 0; r < reps; r++ {
			list = append(list, builderEdge{int32(u), int32(v), weight()})
			u, v = v, u
		}
	}
	if sorted {
		for i := range list {
			if list[i].u > list[i].v {
				list[i].u, list[i].v = list[i].v, list[i].u
			}
		}
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].u != list[j].u {
				return list[i].u < list[j].u
			}
			return list[i].v < list[j].v
		})
	}
	for _, e := range list {
		b.AddEdge(int(e.u), int(e.v), e.w)
	}
	if rng.Intn(2) == 0 {
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, 0.5+rng.Float64())
		}
	}
	if rng.Intn(2) == 0 {
		for i := rng.Intn(n); i >= 0; i-- {
			b.AddSelfLoop(rng.Intn(n), weight())
		}
	}
	return b
}

// starBuilder is a skewed-degree star: a center in the middle of the id
// range, leaves added in random order, every fifth leaf doubled with a
// fractional weight. The center's bucket takes the comparison-sort path.
func starBuilder(rng *rand.Rand, leaves int) *Builder {
	n := leaves + 1
	center := n / 2
	b := NewBuilder(n)
	for _, leaf := range rng.Perm(n) {
		if leaf == center {
			continue
		}
		b.AddEdge(leaf, center, 1+rng.Float64())
		if leaf%5 == 0 {
			b.AddEdge(center, leaf, 0.1+rng.Float64())
		}
	}
	return b
}

func TestBuildMatchesStableSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		sorted := trial%4 == 3
		requireOracle(t, fmt.Sprintf("trial %d (n=%d sorted=%v)", trial, n, sorted), randomBuilder(rng, n, sorted))
	}
	// Empty graphs and all-isolated vertices.
	requireOracle(t, "n=0", NewBuilder(0))
	requireOracle(t, "isolated", NewBuilder(7))
	g := requireOracle(t, "star", starBuilder(rng, 12000))
	if d := g.Degree(g.NumVertices() / 2); d != 12000 {
		t.Fatalf("star center degree %d, want 12000", d)
	}
	// A large bucket whose parallel edges tie on v: the comparison sort must
	// break ties by insertion index.
	b := NewBuilder(100)
	for r := 0; r < 4; r++ {
		for _, v := range rng.Perm(99) {
			b.AddEdge(0, v+1, 0.1+rng.Float64())
		}
	}
	requireOracle(t, "hub with parallels", b)
}

func TestBuildMatchesOracleOnGenerators(t *testing.T) {
	for name, src := range map[string]*Graph{
		"rg":    RandomGeometric(2000, 0.05, 4),
		"loopy": loopy(),
		"grid":  Grid2D(20, 30),
	} {
		// Re-add the edges in a shuffled order so the counting sort runs.
		rng := rand.New(rand.NewSource(int64(len(name))))
		b := NewBuilder(src.NumVertices())
		perm := rng.Perm(src.NumEdges())
		for _, e := range perm {
			u, v := src.EdgeEndpoints(e)
			b.AddEdge(v, u, src.EdgeWeightOf(e))
		}
		for v := 0; v < src.NumVertices(); v++ {
			b.SetVertexWeight(v, src.VertexWeight(v))
			if l := src.VertexLoop(v); l > 0 {
				b.AddSelfLoop(v, l)
			}
		}
		g := requireOracle(t, name, b)
		graphsEqual(t, name, g, src)
	}
}

// builderRelabel is the Builder-based relabeling Relabel replaces: g's edges
// and weights added under perm, built by the stable-sort oracle.
func builderRelabel(g *Graph, perm []int32) *Graph {
	b := NewBuilder(g.NumVertices())
	g.ForEachEdge(func(u, v int, w float64) {
		b.AddEdge(int(perm[u]), int(perm[v]), w)
	})
	for v := 0; v < g.NumVertices(); v++ {
		b.SetVertexWeight(int(perm[v]), g.VertexWeight(v))
		if lw := g.VertexLoop(v); lw != 0 {
			b.AddSelfLoop(int(perm[v]), lw)
		}
	}
	return oracleBuild(b)
}

func TestRelabelMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	graphs := []*Graph{
		NewBuilder(0).MustBuild(),
		NewBuilder(5).MustBuild(),
		loopy(),
		RandomGeometric(3000, 0.04, 9),
		starBuilder(rng, 12000).MustBuild(),
	}
	for trial := 0; trial < 200; trial++ {
		graphs = append(graphs, randomBuilder(rng, rng.Intn(60), false).MustBuild())
	}
	for i, g := range graphs {
		n := g.NumVertices()
		perm := make([]int32, n)
		for v, p := range rng.Perm(n) {
			perm[v] = int32(p)
		}
		got, err := Relabel(g, perm)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if want := builderRelabel(g, perm); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d (n=%d m=%d): Relabel differs from Builder-based relabeling", i, n, g.NumEdges())
		}
	}
}

// TestWithEditsMatchesOracle replays random edit chains against a map of
// the expected edge set, built by the oracle from a shuffled edge list.
func TestWithEditsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		g := randomBuilder(rng, 2+rng.Intn(50), false).MustBuild()
		n := g.NumVertices()
		want := map[[2]int]float64{}
		g.ForEachEdge(func(u, v int, w float64) { want[[2]int{u, v}] = w })
		var edits []EdgeEdit
		for i := rng.Intn(3 * n); i >= 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			k := [2]int{min(u, v), max(u, v)}
			w := 0.1 + rng.Float64()
			_, exists := want[k]
			switch {
			case !exists:
				edits = append(edits, EdgeEdit{Op: "add", U: u, V: v, W: w})
				want[k] = w
			case rng.Intn(2) == 0:
				edits = append(edits, EdgeEdit{Op: "remove", U: v, V: u})
				delete(want, k)
			default:
				edits = append(edits, EdgeEdit{Op: "reweight", U: u, V: v, W: w})
				want[k] = w
			}
		}
		got, err := g.WithEdits(edits)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := NewBuilder(n)
		for k, w := range want {
			b.AddEdge(k[1], k[0], w)
		}
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, g.VertexWeight(v))
			if l := g.VertexLoop(v); l > 0 {
				b.AddSelfLoop(v, l)
			}
		}
		if ref := oracleBuild(b); !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: WithEdits differs from the oracle over %d edits", trial, len(edits))
		}
	}
}
