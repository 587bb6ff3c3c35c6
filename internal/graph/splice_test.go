package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// rebuildWithEdits is WithEdits as a full rebuild: the same validation,
// then every surviving edge fed to a Builder in (u, v) order. It is the
// reference the splice must match bit for bit.
func rebuildWithEdits(g *Graph, edits []EdgeEdit) (*Graph, error) {
	n := g.NumVertices()
	type key struct{ u, v int32 }
	norm := func(u, v int) (key, error) {
		if u == v {
			return key{}, fmt.Errorf("graph: edit names a self-loop at vertex %d", u)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return key{}, fmt.Errorf("graph: edit edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		if u > v {
			u, v = v, u
		}
		return key{int32(u), int32(v)}, nil
	}
	// Running weight per edited edge; untouched edges never enter the map.
	edited := make(map[key]float64, len(edits))
	weightOf := func(k key) (float64, bool) {
		if w, ok := edited[k]; ok {
			return w, w > 0
		}
		w, ok := g.EdgeWeight(int(k.u), int(k.v))
		return w, ok
	}
	for i, e := range edits {
		k, err := norm(e.U, e.V)
		if err != nil {
			return nil, fmt.Errorf("%v (edit %d)", err, i)
		}
		w := e.W
		if w == 0 && e.Op != "remove" {
			w = 1
		}
		_, exists := weightOf(k)
		switch e.Op {
		case "add":
			if exists {
				return nil, fmt.Errorf("graph: edit %d adds edge {%d,%d} which already exists (use reweight)", i, k.u, k.v)
			}
		case "remove":
			if !exists {
				return nil, fmt.Errorf("graph: edit %d removes edge {%d,%d} which does not exist", i, k.u, k.v)
			}
			w = 0 // tombstone
		case "reweight":
			if !exists {
				return nil, fmt.Errorf("graph: edit %d reweights edge {%d,%d} which does not exist", i, k.u, k.v)
			}
		default:
			return nil, fmt.Errorf("graph: edit %d has unknown op %q (want add, remove or reweight)", i, e.Op)
		}
		if e.Op != "remove" && (!(w > 0) || math.IsInf(w, 1)) {
			return nil, fmt.Errorf("graph: edit %d sets non-positive or non-finite weight %g", i, e.W)
		}
		edited[k] = w
	}

	// Freshly added edges, sorted so they merge into the (u, v)-ordered
	// ForEachEdge stream below and Build finds its input already in order.
	var added []key
	for k, w := range edited {
		if _, ok := g.EdgeWeight(int(k.u), int(k.v)); w > 0 && !ok {
			added = append(added, k)
		}
	}
	slices.SortFunc(added, func(a, b key) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})

	b := NewBuilder(n)
	b.Reserve(g.NumEdges() + len(added))
	for v := 0; v < n; v++ {
		if w := g.VertexWeight(v); w != 1 {
			b.SetVertexWeight(v, w)
		}
		if w := g.VertexLoop(v); w > 0 {
			b.AddSelfLoop(v, w)
		}
	}
	g.ForEachEdge(func(u, v int, w float64) {
		for len(added) > 0 && (int(added[0].u) < u || (int(added[0].u) == u && int(added[0].v) < v)) {
			b.AddEdge(int(added[0].u), int(added[0].v), edited[added[0]])
			added = added[1:]
		}
		if ew, ok := edited[key{int32(u), int32(v)}]; ok {
			if ew > 0 {
				b.AddEdge(u, v, ew)
			}
			return
		}
		b.AddEdge(u, v, w)
	})
	for _, k := range added {
		b.AddEdge(int(k.u), int(k.v), edited[k])
	}
	return b.Build()
}

// FuzzWithEdits: for any small graph — built, decoded from the binary
// encoding or relabeled; with vertex weights, self-loops and isolated
// vertices — and any edit sequence, WithEdits must answer exactly as the
// rebuild does: the same error text, or a DeepEqual graph with the same
// Digest, leaving the source untouched.
//
// data[0] picks the vertex count, data[1] the number of 3-byte graph
// records (u, v, weight; u == v is a self-loop, a record with the top bit
// of its weight byte set also reweights vertex u); the rest are 4-byte
// edits (kind, u, v, weight), generated against the running edge set so
// most are valid: kinds toggle an edge, reweight it (to the same weight or
// a new one), send a raw op that may be invalid, or pair a remove with an
// add back (or an add with a remove). Endpoint n and the odd weights make
// invalid edits.
func FuzzWithEdits(f *testing.F) {
	f.Add(uint8(0), []byte{5, 4, 0, 1, 10, 1, 2, 20, 2, 3, 30, 3, 4, 40, 0, 0, 1, 0, 0, 0, 1, 0, 2, 1, 2, 7})
	f.Add(uint8(1), []byte{6, 5, 0, 0, 200, 1, 2, 3, 2, 5, 9, 4, 4, 129, 3, 1, 8, 0, 0, 2, 0, 0, 3, 5, 1, 4, 1, 3, 2})
	f.Add(uint8(2), []byte{7, 6, 0, 6, 1, 1, 5, 2, 2, 4, 3, 3, 3, 150, 6, 1, 5, 0, 6, 2, 0, 0, 6, 3, 8, 0, 3, 4, 6, 1, 1, 2})
	f.Add(uint8(0), []byte{3, 1, 0, 1, 1, 5, 0, 3, 1, 6, 0, 2, 0, 7, 0, 1, 0})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 1, 0})
	f.Add(uint8(2), []byte{9, 0, 0, 0, 8, 1, 0, 1, 8, 0, 0, 8, 2})
	f.Fuzz(func(t *testing.T, source uint8, data []byte) {
		g, edits := fuzzGraphAndEdits(source, data)
		before := Digest(g)
		want, wantErr := rebuildWithEdits(g, edits)
		got, gotErr := g.WithEdits(edits)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%v: error %v, rebuild says %v", edits, gotErr, wantErr)
		}
		if Digest(g) != before {
			t.Fatal("WithEdits modified its source")
		}
		if gotErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: splice differs from the rebuild", edits)
		}
		if Digest(got) != Digest(want) {
			t.Fatalf("%v: splice digest differs from the rebuild's", edits)
		}
	})
}

var fuzzEditWeights = []float64{0, 1, 0.5, 2.75, 1e-300, -1, math.Inf(1), math.NaN()}

func fuzzGraphAndEdits(source uint8, data []byte) (*Graph, []EdgeEdit) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next() % 13
	b := NewBuilder(n)
	for recs := next() % 40; recs > 0 && n > 0 && len(data) > 0; recs-- {
		u, v, w := next()%n, next()%n, next()
		weight := 1.0
		if w&0x3f != 0 {
			weight = float64(w&0x3f) / 8
		}
		if u == v {
			b.AddSelfLoop(u, weight)
		} else {
			b.AddEdge(u, v, weight)
		}
		if w&0x80 != 0 {
			b.SetVertexWeight(u, 0.25+float64(w&0x3f))
		}
	}
	g := b.MustBuild()
	switch source % 3 {
	case 1:
		var err error
		if g, err = DecodeBinary(EncodeBinary(g)); err != nil {
			panic(err)
		}
	case 2:
		perm := make([]int32, n)
		for v := range perm {
			perm[v] = int32((3*n - 1 - v + int(source)/3) % max(n, 1))
		}
		var err error
		if g, err = Relabel(g, perm); err != nil {
			panic(err)
		}
	}
	state := map[[2]int]float64{}
	g.ForEachEdge(func(u, v int, w float64) { state[[2]int{u, v}] = w })
	var edits []EdgeEdit
	for len(data) >= 4 {
		kind, u, v := next(), next()%(n+1), next()%(n+1)
		w := fuzzEditWeights[next()%len(fuzzEditWeights)]
		k := [2]int{min(u, v), max(u, v)}
		cur, exists := state[k]
		e := EdgeEdit{U: u, V: v, W: w}
		switch kind % 4 {
		case 0: // toggle
			e.Op = "add"
			if exists {
				e.Op = "remove"
			}
		case 1: // reweight, to the same weight for odd kinds
			e.Op = "reweight"
			if kind&4 != 0 {
				e.W = cur
			}
		case 2: // raw op, valid or not
			e.Op = [...]string{"add", "remove", "reweight", "sever"}[kind/4%4]
		default: // remove then add back, or add then remove
			if exists {
				edits = append(edits, EdgeEdit{Op: "remove", U: v, V: u})
				e.Op = "add"
			} else {
				edits = append(edits, EdgeEdit{Op: "add", U: v, V: u, W: w})
				e.Op = "remove"
			}
		}
		edits = append(edits, e)
		switch {
		case u == v || u == n || v == n:
		case e.Op == "remove":
			delete(state, k)
		case e.W == 0:
			state[k] = 1
		default:
			state[k] = e.W
		}
	}
	return g, edits
}

// churnFixture is a churn chain in the shape ffserve serves: a random
// geometric graph with share of its edges held out, and edits that each
// remove count present edges and add count held-out ones.
type churnFixture struct {
	base    *Graph
	present [][2]int
	absent  [][2]int
	rng     *rand.Rand
}

func newChurnFixture(n int, radius, share float64, seed int64) *churnFixture {
	full := RandomGeometric(n, radius, seed)
	c := &churnFixture{rng: rand.New(rand.NewSource(seed))}
	full.ForEachEdge(func(u, v int, _ float64) { c.present = append(c.present, [2]int{u, v}) })
	c.rng.Shuffle(len(c.present), func(i, j int) { c.present[i], c.present[j] = c.present[j], c.present[i] })
	held := int(share * float64(len(c.present)))
	c.absent = append(c.absent, c.present[:held]...)
	c.present = c.present[held:]
	b := NewBuilder(n)
	for _, e := range c.present {
		b.AddEdge(e[0], e[1], 1)
	}
	c.base = b.MustBuild()
	return c
}

// edits draws one batch; no edge is touched twice in it.
func (c *churnFixture) edits(count int) []EdgeEdit {
	edits := make([]EdgeEdit, 0, 2*count)
	for i := 0; i < count; i++ {
		j := c.rng.Intn(len(c.present) - i)
		c.present[j], c.present[len(c.present)-1-i] = c.present[len(c.present)-1-i], c.present[j]
		k := c.rng.Intn(len(c.absent) - i)
		c.absent[k], c.absent[len(c.absent)-1-i] = c.absent[len(c.absent)-1-i], c.absent[k]
		r, a := c.present[len(c.present)-1-i], c.absent[len(c.absent)-1-i]
		edits = append(edits, EdgeEdit{Op: "remove", U: r[1], V: r[0]}, EdgeEdit{Op: "add", U: a[0], V: a[1]})
	}
	// The removed and added tails swap pools.
	tail := func(s [][2]int) [][2]int { return s[len(s)-count:] }
	for i, r := range tail(c.present) {
		tail(c.present)[i], tail(c.absent)[i] = tail(c.absent)[i], r
	}
	return edits
}

// TestWithEditsChurnChain derives 50 versions, each from the previous one,
// with a removal, an addition and a reweight mix per batch, and holds every
// version to the rebuild chain bit for bit.
func TestWithEditsChurnChain(t *testing.T) {
	c := newChurnFixture(1500, 0.05, 0.05, 4)
	got, want := c.base, c.base
	for step := 0; step < 50; step++ {
		edits := c.edits(40)
		// Reweights of edges present after the batch, including ones it
		// just added.
		for i := 0; i < 10; i++ {
			e := c.present[c.rng.Intn(len(c.present))]
			edits = append(edits, EdgeEdit{Op: "reweight", U: e[0], V: e[1], W: 0.5 + float64(i)})
		}
		next, err := got.WithEdits(edits)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ref, err := rebuildWithEdits(want, edits)
		if err != nil {
			t.Fatalf("step %d: rebuild: %v", step, err)
		}
		if !reflect.DeepEqual(next, ref) {
			t.Fatalf("step %d: splice differs from the rebuild", step)
		}
		got, want = next, ref
	}
	if Digest(got) != Digest(want) || Digest(got) == Digest(c.base) {
		t.Fatal("chain digests diverged or never moved")
	}
}

// BenchmarkWithEditsChurn is one churn mutate at the size ffserve's churn
// workload sends: RG-10k with 5% of its edges held out, 300 removals and
// 300 additions.
func BenchmarkWithEditsChurn(b *testing.B) {
	c := newChurnFixture(10000, 0.02, 0.05, 1)
	edits := c.edits(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.base.WithEdits(edits); err != nil {
			b.Fatal(err)
		}
	}
}
