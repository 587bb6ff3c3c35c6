package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

// checkMembership compares the search's membership index with plain scans
// of its partition: every slot's list (walked both ways) is VerticesOf, and
// the live set, its n-th element, its successor query and its lowest gap
// agree with the non-empty slots.
func checkMembership(t *testing.T, s *search) bool {
	t.Helper()
	p, m := s.cur, &s.mem
	for a := 0; a < p.Capacity(); a++ {
		want := p.VerticesOf(a)
		got := m.appendMembers(nil, a)
		if !slices.Equal(got, want) {
			t.Logf("slot %d: members %v, VerticesOf %v", a, got, want)
			return false
		}
		for i, v := range got {
			wantPrev := int32(-1)
			if i > 0 {
				wantPrev = got[i-1]
			}
			if m.prev[v] != wantPrev {
				t.Logf("slot %d: prev[%d] = %d, want %d", a, v, m.prev[v], wantPrev)
				return false
			}
		}
	}
	live := p.NonEmptyParts()
	if got := m.appendLive(nil); !slices.Equal(got, live) {
		t.Logf("live %v, non-empty parts %v", got, live)
		return false
	}
	for i, a := range live {
		if got := m.nthLive(i); got != a {
			t.Logf("nthLive(%d) = %d, want %d", i, got, a)
			return false
		}
	}
	if got := m.nthLive(len(live)); got != -1 {
		t.Logf("nthLive(%d) = %d past the end", len(live), got)
		return false
	}
	empty := -1
	for a := 0; a < p.Capacity(); a++ {
		if p.PartSize(a) == 0 {
			empty = a
			break
		}
	}
	if got := m.lowestEmpty(); got != empty {
		t.Logf("lowestEmpty = %d, want %d", got, empty)
		return false
	}
	for a := 0; a <= p.Capacity(); a++ {
		want := -1
		if i, _ := slices.BinarySearch(live, a); i < len(live) {
			want = live[i]
		}
		if got := m.nextLive(a); got != want {
			t.Logf("nextLive(%d) = %d, want %d", a, got, want)
			return false
		}
	}
	return true
}

// The search's mutation wrappers keep the membership index equal to a scan
// of the partition after every step of a random sequence of moves, merges,
// fission splits (degenerate sides included) and resets, with capacities
// that fill the last bitset word, stop short of it or span several words.
func TestMembershipWrappersMatchScan(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(90)
		g := graph.GNP(n, 0.1, seed)
		capacity := []int{n, n + 1 + r.Intn(140), 64, 128}[r.Intn(4)]
		if capacity < n {
			capacity = n
		}
		randomPartition := func() *partition.P {
			assign := make([]int32, n)
			k := 1 + r.Intn(capacity)
			for v := range assign {
				assign[v] = int32(r.Intn(k))
			}
			p, err := partition.FromAssignment(g, assign, capacity)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		s := newSearch(g, 2, Options{Initial: randomPartition()})
		s.cur = randomPartition()
		s.mem.resync(s.cur)
		if !checkMembership(t, s) {
			return false
		}
		for step := 0; step < 200; step++ {
			switch op := r.Intn(10); {
			case op < 5:
				s.move(r.Intn(n), r.Intn(capacity))
			case op < 7:
				s.merge(r.Intn(capacity), r.Intn(capacity))
			case op < 9:
				atom := s.mem.nthLive(r.Intn(s.cur.NumParts()))
				slot := s.mem.lowestEmpty()
				if s.cur.PartSize(atom) < 2 || slot < 0 {
					continue
				}
				members := s.mem.appendMembers(nil, atom)
				side := make([]int32, len(members))
				fill := r.Intn(3) // 0: all stay, 1: all go, 2: random
				for i := range side {
					side[i] = int32(fill)
					if fill == 2 {
						side[i] = int32(r.Intn(2))
					}
				}
				s.splitOff(atom, slot, members, side)
			default:
				s.reset(randomPartition())
			}
			if err := s.cur.Validate(); err != nil {
				t.Fatal(err)
			}
			if !checkMembership(t, s) {
				t.Logf("seed %d step %d", seed, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
