package recursive

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestSpread(t *testing.T) {
	for _, tc := range []struct {
		kNode, groups int
		want          []int
	}{
		{2, 2, []int{1, 1}},
		{7, 2, []int{4, 3}},
		{13, 8, []int{2, 2, 2, 2, 2, 1, 1, 1}},
		{32, 8, []int{4, 4, 4, 4, 4, 4, 4, 4}},
	} {
		if got := Spread(tc.kNode, tc.groups); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Spread(%d, %d) = %v, want %v", tc.kNode, tc.groups, got, tc.want)
		}
	}
}

// TestBandsContiguousAndFilled: along the visit order the bands are
// contiguous and ascending, and every band holds at least its part count.
func TestBandsContiguousAndFilled(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		n := 8 + r.Intn(60)
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, float64(1+r.Intn(9)))
		}
		g := b.MustBuild()
		verts := make([]int32, n)
		for v := range verts {
			verts[v] = int32(v)
		}
		order := make([]int, n)
		rng.Perm(r, order)
		kNode := 2 + r.Intn(n-1)
		kPer := Spread(kNode, min(2+r.Intn(7), kNode))
		local := Bands(g, verts, order, kPer)
		count := make([]int, len(kPer))
		prev := int32(0)
		for _, i := range order {
			if local[i] < prev {
				t.Fatalf("trial %d: bands not contiguous along the order", trial)
			}
			prev = local[i]
			count[local[i]]++
		}
		for gi, c := range count {
			if c < kPer[gi] {
				t.Fatalf("trial %d: band %d has %d vertices for %d parts", trial, gi, c, kPer[gi])
			}
		}
	}
}

// TestPartitionReservesIDs: a split that leaves one group empty and another
// with fewer vertices than parts keeps part numbering dense — the empty
// group's ids and the unfillable ids are skipped, never reused.
func TestPartitionReservesIDs(t *testing.T) {
	g := graph.Grid2D(2, 3) // 6 vertices
	p, err := Partition(context.Background(), g, 6, func(_ context.Context, verts []int32, kNode int) ([]int32, []int, error) {
		local := make([]int32, len(verts))
		if kNode == 6 {
			// Group 0 (2 parts) stays empty; group 1 gets vertex 0 alone
			// for 2 parts; group 2 gets the rest for 2 parts.
			for i := range local {
				local[i] = 2
			}
			local[0] = 1
			return local, []int{2, 2, 2}, nil
		}
		for i := range local {
			local[i] = int32(i % 2)
		}
		return local, Spread(kNode, 2), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ids 0-1: empty group 0. Id 2: reserved by the clamp of group 1, id 3:
	// vertex 0. Ids 4-5: group 2, split by parity of position.
	want := []int32{3, 4, 5, 4, 5, 4}
	if got := p.Assignment(); !reflect.DeepEqual(got, want) {
		t.Fatalf("assignment %v, want %v", got, want)
	}
}

func TestPartitionStopsOnErrorAndCancellation(t *testing.T) {
	g := graph.Grid2D(4, 4)
	boom := errors.New("boom")
	_, err := Partition(context.Background(), g, 4, func(context.Context, []int32, int) ([]int32, []int, error) {
		return nil, nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("split error not returned: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Partition(ctx, g, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context not reported: %v", err)
	}
}
