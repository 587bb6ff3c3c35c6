package partition

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func mustFrom(t *testing.T, g *graph.Graph, assign []int32, k int) *P {
	t.Helper()
	p, err := FromAssignment(g, assign, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBisectionStats(t *testing.T) {
	// Path 0-1-2-3 split as {0,1} {2,3}: one crossing edge.
	g := graph.Path(4)
	p := mustFrom(t, g, []int32{0, 0, 1, 1}, 2)
	if p.NumParts() != 2 {
		t.Fatalf("NumParts = %d", p.NumParts())
	}
	if p.CrossingWeight() != 1 {
		t.Fatalf("crossing = %g, want 1", p.CrossingWeight())
	}
	if p.PartCut(0) != 1 || p.PartCut(1) != 1 {
		t.Fatalf("cuts = %g,%g", p.PartCut(0), p.PartCut(1))
	}
	if p.PartInternalOrdered(0) != 2 || p.PartInternalOrdered(1) != 2 {
		t.Fatalf("W(A) = %g,%g, want 2,2", p.PartInternalOrdered(0), p.PartInternalOrdered(1))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveUpdatesStats(t *testing.T) {
	g := graph.Cycle(6)
	p := mustFrom(t, g, []int32{0, 0, 0, 1, 1, 1}, 2)
	if p.CrossingWeight() != 2 {
		t.Fatalf("crossing = %g, want 2", p.CrossingWeight())
	}
	p.Move(2, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.PartSize(0) != 2 || p.PartSize(1) != 4 {
		t.Fatalf("sizes = %d,%d", p.PartSize(0), p.PartSize(1))
	}
	if p.CrossingWeight() != 2 {
		t.Fatalf("crossing after move = %g, want 2", p.CrossingWeight())
	}
	// Move back restores.
	p.Move(2, 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveEmptiesAndRevivesParts(t *testing.T) {
	g := graph.Path(3)
	p := mustFrom(t, g, []int32{0, 1, 2}, 4)
	if p.NumParts() != 3 {
		t.Fatalf("NumParts = %d", p.NumParts())
	}
	p.Move(1, 0) // part 1 now empty
	if p.NumParts() != 2 {
		t.Fatalf("NumParts after emptying = %d", p.NumParts())
	}
	if p.PartSize(1) != 0 {
		t.Fatal("expected slot 1 to be empty")
	}
	p.Move(2, 3) // occupy slot 3
	if p.NumParts() != 2 {
		t.Fatalf("NumParts = %d", p.NumParts())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectionAndConnectedParts(t *testing.T) {
	g := graph.Path(5) // 0-1-2-3-4
	p := mustFrom(t, g, []int32{0, 0, 1, 2, 2}, 3)
	if c := p.ConnectionToPart(2, 0); c != 1 {
		t.Fatalf("ConnectionToPart(2,0) = %g", c)
	}
	if c := p.ConnectionToPart(2, 2); c != 1 {
		t.Fatalf("ConnectionToPart(2,2) = %g", c)
	}
	var c Connections
	if cp := c.Of(p, p.VerticesOf(1)); !slices.Equal(cp, []int{0, 2}) || c.W[0] != 1 || c.W[2] != 1 {
		t.Fatalf("Connections.Of(1) = %v, W = %v", cp, c.W)
	}
}

// Connections.Of matches a map built by a plain scan, part for part and bit
// for bit, while one Connections is reused across partitions of growing
// capacity.
func TestConnectionsMatchScan(t *testing.T) {
	r := rng.New(9)
	var c Connections
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(50)
		g := graph.RandomGeometric(n, 0.3, int64(trial))
		capacity := 1 + r.Intn(2*n)
		assign := make([]int32, n)
		for v := range assign {
			assign[v] = int32(r.Intn(capacity))
		}
		p := mustFrom(t, g, assign, capacity)
		for a := 0; a < capacity; a++ {
			want := map[int]float64{}
			for v, pa := range assign {
				if int(pa) != a {
					continue
				}
				wts := g.Weights(v)
				for i, u := range g.Neighbors(v) {
					if b := int(assign[u]); b != a {
						want[b] += wts[i]
					}
				}
			}
			got := c.Of(p, p.VerticesOf(a))
			if len(got) != len(want) || !slices.IsSorted(got) {
				t.Fatalf("trial %d: Of(%d) = %v, want the parts of %v", trial, a, got, want)
			}
			for _, b := range got {
				if w, ok := want[b]; !ok || c.W[b] != w {
					t.Fatalf("trial %d: W[%d] = %g for part %d, want %g", trial, b, c.W[b], a, w)
				}
			}
		}
	}
}

func TestCloneAndCopyFromIndependence(t *testing.T) {
	g := graph.Cycle(8)
	p := mustFrom(t, g, []int32{0, 0, 0, 0, 1, 1, 1, 1}, 2)
	q := p.Clone()
	p.Move(0, 1)
	if q.Part(0) != 0 {
		t.Fatal("clone mutated by original")
	}
	q.CopyFrom(p)
	if q.Part(0) != 1 {
		t.Fatal("CopyFrom did not copy")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompact(t *testing.T) {
	g := graph.Path(4)
	p := mustFrom(t, g, []int32{5, 5, 9, 2}, 12)
	c := p.Compact()
	if c[0] != 0 || c[1] != 0 || c[2] != 1 || c[3] != 2 {
		t.Fatalf("Compact = %v", c)
	}
}

func TestVerticesOf(t *testing.T) {
	g := graph.Path(5)
	p := mustFrom(t, g, []int32{1, 0, 1, 0, 1}, 2)
	vs := p.VerticesOf(1)
	if len(vs) != 3 || vs[0] != 0 || vs[1] != 2 || vs[2] != 4 {
		t.Fatalf("VerticesOf(1) = %v", vs)
	}
}

// VerticesOf and AppendNonEmptyParts, which extends a caller's buffer
// whatever its length, return exactly the ids a plain scan finds, in
// increasing order.
func TestAppendFormsMatchScan(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		capacity := 1 + r.Intn(2*n)
		assign := make([]int32, n)
		for v := range assign {
			assign[v] = int32(r.Intn(capacity))
		}
		p := mustFrom(t, graph.Path(n), assign, capacity)
		for a := 0; a < capacity; a++ {
			want := []int32{}
			for v, pa := range assign {
				if int(pa) == a {
					want = append(want, int32(v))
				}
			}
			if got := p.VerticesOf(a); !slices.Equal(got, want) {
				t.Fatalf("VerticesOf(%d) = %v, want %v", a, got, want)
			}
		}
		wantParts := []int{-1}
		for a := 0; a < capacity; a++ {
			if p.PartSize(a) > 0 {
				wantParts = append(wantParts, a)
			}
		}
		if got := p.AppendNonEmptyParts([]int{-1}); !slices.Equal(got, wantParts) {
			t.Fatalf("AppendNonEmptyParts = %v, want %v", got, wantParts)
		}
	}
}

// Property: an arbitrary sequence of random moves keeps the incrementally
// tracked statistics identical to a from-scratch recomputation.
func TestRandomMovesStayConsistent(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(40)
		g := graph.GNP(n, 0.15, seed+1)
		k := 2 + r.Intn(5)
		assign := make([]int32, n)
		for v := range assign {
			assign[v] = int32(r.Intn(k))
		}
		p, err := FromAssignment(g, assign, k)
		if err != nil {
			return false
		}
		for step := 0; step < 200; step++ {
			p.Move(r.Intn(n), r.Intn(k))
		}
		return p.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sum over parts of cut(A) equals exactly twice the crossing
// weight, and internal+crossing equals the graph's total edge weight.
func TestCutIdentities(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(30)
		g := graph.RandomGeometric(n, 0.4, seed)
		k := 2 + r.Intn(4)
		p := New(g, k)
		for v := 0; v < n; v++ {
			p.Assign(v, r.Intn(k))
		}
		sumCut, sumInt := 0.0, 0.0
		for a := 0; a < k; a++ {
			sumCut += p.PartCut(a)
			sumInt += p.PartInternalOrdered(a) / 2
		}
		if math.Abs(sumCut-2*p.CrossingWeight()) > 1e-9 {
			return false
		}
		return math.Abs(sumInt+p.CrossingWeight()-g.TotalEdgeWeight()) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// referenceMinInternal is MinInternalPart's specification: scan non-empty
// parts in ascending id order, keep the first strictly smaller internal
// weight, skip the excluded part.
func referenceMinInternal(p *P, exclude int) int {
	best := -1
	bestW := math.Inf(1)
	for _, a := range p.NonEmptyParts() {
		if a == exclude {
			continue
		}
		if w := p.PartInternalOrdered(a); w < bestW {
			best, bestW = a, w
		}
	}
	return best
}

// Property: the incrementally tracked two-smallest argmin answers every
// MinInternalPart query identically to the from-scratch reference scan,
// under arbitrary interleavings of moves, queries, bulk restores, and the
// annealer's hot-phase "move into the argmin part" pattern (which is what
// repeatedly pushes the tracked minimum past the runner-up and exercises
// the lazy-rescan cases).
func TestMinInternalPartMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 6 + r.Intn(50)
		g := graph.GNP(n, 0.2, seed+3)
		if seed%2 == 0 {
			// Odd seeds keep the generator's unit weights (the narrow
			// composite-key path); even seeds rebuild with fractional edge
			// weights and self-loops so the wide bit-mapped-key path stays
			// covered by the same property.
			b := graph.NewBuilder(n)
			g.ForEachEdge(func(u, v int, w float64) {
				b.AddEdge(u, v, float64(1+r.Intn(12))/4)
			})
			for v := 0; v < n; v += 3 {
				b.AddSelfLoop(v, float64(r.Intn(5))/2+0.5)
			}
			g = b.MustBuild()
		}
		k := 2 + r.Intn(12)
		capacity := k + r.Intn(4)
		assign := make([]int32, n)
		for v := range assign {
			assign[v] = int32(r.Intn(k))
		}
		p, err := FromAssignment(g, assign, capacity)
		if err != nil {
			return false
		}
		snap := p.Clone()
		query := func() bool {
			exclude := -1
			switch r.Intn(3) {
			case 0:
				exclude = r.Intn(capacity)
			case 1:
				exclude = p.Part(r.Intn(n)) // the annealer's form
			}
			return p.MinInternalPart(exclude) == referenceMinInternal(p, exclude)
		}
		for step := 0; step < 400; step++ {
			switch r.Intn(10) {
			case 0:
				p.CopyFrom(snap)
			case 1:
				snap.CopyFrom(p)
			case 2, 3:
				p.Move(r.Intn(n), r.Intn(capacity))
			default:
				// Hot-phase pattern: query, then feed the argmin part.
				v := r.Intn(n)
				if !query() {
					return false
				}
				if tgt := p.MinInternalPart(p.Part(v)); tgt >= 0 {
					p.Move(v, tgt)
				}
			}
			if !query() {
				return false
			}
		}
		return p.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := graph.Path(4)
	p := mustFrom(t, g, []int32{0, 0, 1, 1}, 2)
	p.part[0] = 1 // corrupt behind the API's back
	if err := p.Validate(); err == nil {
		t.Fatal("Validate missed corruption")
	}
}

func TestFromAssignmentErrors(t *testing.T) {
	g := graph.Path(3)
	if _, err := FromAssignment(g, []int32{0, 1}, 2); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, err := FromAssignment(g, []int32{0, 1, 5}, 2); err == nil {
		t.Fatal("out-of-range part accepted")
	}
	if _, err := FromAssignment(g, []int32{0, -1, 1}, 2); err == nil {
		t.Fatal("negative part accepted")
	}
}

// TestLoopWeightCountsAsInternal pins the V-cycle contract: a vertex's
// self-loop weight rides along in the internal weight of whatever part
// holds it, through Assign, Move and Validate alike.
func TestLoopWeightCountsAsInternal(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddSelfLoop(0, 2) // e.g. two contracted unit edges
	b.AddSelfLoop(2, 0.5)
	g := b.MustBuild()

	p := New(g, 2)
	p.Assign(0, 0)
	p.Assign(1, 0)
	p.Assign(2, 1)
	p.Assign(3, 1)
	// Part 0: edge {0,1} internal (1) + loop at 0 (2) => W(A) ordered = 6.
	if got := p.PartInternalOrdered(0); got != 6 {
		t.Fatalf("PartInternalOrdered(0) = %g, want 6", got)
	}
	// Part 1: edge {2,3} internal (1) + loop at 2 (0.5) => 3.
	if got := p.PartInternalOrdered(1); got != 3 {
		t.Fatalf("PartInternalOrdered(1) = %g, want 3", got)
	}
	// Loops never contribute to the cut.
	if got := p.CrossingWeight(); got != 1 {
		t.Fatalf("CrossingWeight = %g, want 1", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	// Moving vertex 2 carries its loop from part 1 to part 0.
	p.Move(2, 0)
	if got := p.PartInternalOrdered(1); got != 0 {
		t.Fatalf("after move, PartInternalOrdered(1) = %g, want 0", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Move(2, 1)
	if got := p.PartInternalOrdered(1); got != 3 {
		t.Fatalf("after move back, PartInternalOrdered(1) = %g, want 3", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
