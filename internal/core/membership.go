package core

import (
	"math/bits"

	"repro/internal/partition"
)

// membership indexes the search's current molecule by atom: the vertices of
// every part slot form a doubly linked list in ascending vertex order, and
// a bitset marks the non-empty slots. An event reads an atom's members in
// O(|atom|) and the live atoms in O(slots/64) instead of scanning all n
// vertices or slots, in exactly the ascending order those scans gave.
// Memory is O(n + slots), allocated once: a slot costs one list head and
// one bit, however many vertices it holds.
//
// The index is kept by the search's own mutation wrappers (move, merge,
// splitOff and reset); partition.P itself knows nothing of it, so the
// annealer and refine.KWay, which share P.Move, pay nothing for it.
type membership struct {
	head []int32  // per slot: lowest member, -1 when empty
	next []int32  // per vertex: next higher member of its part, -1 at the end
	prev []int32  // per vertex: next lower member of its part, -1 at the head
	live []uint64 // bit a set: slot a is non-empty
}

func newMembership(n, slots int) membership {
	return membership{
		head: make([]int32, slots),
		next: make([]int32, n),
		prev: make([]int32, n),
		live: make([]uint64, (slots+63)/64),
	}
}

// resync rebuilds the index from p in O(n + slots), after p was assigned or
// overwritten wholesale.
func (m *membership) resync(p *partition.P) {
	for a := range m.head {
		m.head[a] = -1
	}
	clear(m.live)
	// Pushing at the front in descending vertex order leaves every list
	// ascending.
	for v := len(m.next) - 1; v >= 0; v-- {
		if a := p.Part(v); a != partition.Unassigned {
			m.pushFront(int32(v), a)
			m.setLive(a)
		}
	}
}

func (m *membership) pushFront(v int32, a int) {
	h := m.head[a]
	m.next[v], m.prev[v] = h, -1
	if h >= 0 {
		m.prev[h] = v
	}
	m.head[a] = v
}

// appendMembers appends the vertices of slot a to dst in ascending order.
func (m *membership) appendMembers(dst []int32, a int) []int32 {
	for v := m.head[a]; v >= 0; v = m.next[v] {
		dst = append(dst, v)
	}
	return dst
}

// unlink removes v from the list of slot a, its part, in O(1).
func (m *membership) unlink(v int32, a int) {
	pv, nv := m.prev[v], m.next[v]
	if pv >= 0 {
		m.next[pv] = nv
	} else {
		m.head[a] = nv
	}
	if nv >= 0 {
		m.prev[nv] = pv
	}
}

// insert links v into the list of slot a at its ascending position.
func (m *membership) insert(v int32, a int) {
	pv := int32(-1)
	for u := m.head[a]; u >= 0 && u < v; u = m.next[u] {
		pv = u
	}
	var nv int32
	if pv >= 0 {
		nv = m.next[pv]
		m.next[pv] = v
	} else {
		nv = m.head[a]
		m.head[a] = v
	}
	m.prev[v], m.next[v] = pv, nv
	if nv >= 0 {
		m.prev[nv] = v
	}
}

// mergeInto splices the list of slot b into that of slot a, keeping it
// ascending, and empties b, in O(|a| + |b|).
func (m *membership) mergeInto(a, b int) {
	x, y := m.head[a], m.head[b]
	tail := int32(-1)
	link := func(v int32) {
		m.prev[v] = tail
		if tail >= 0 {
			m.next[tail] = v
		} else {
			m.head[a] = v
		}
		tail = v
	}
	for x >= 0 && y >= 0 {
		if x < y {
			nx := m.next[x]
			link(x)
			x = nx
		} else {
			ny := m.next[y]
			link(y)
			y = ny
		}
	}
	for rest := max(x, y); rest >= 0; {
		nr := m.next[rest]
		link(rest)
		rest = nr
	}
	m.head[b] = -1
	m.clearLive(b)
	m.setLive(a)
}

// relink rebuilds the lists of slots a and b from members, the ascending
// former members of a that p now holds in a or b, in O(|members|).
func (m *membership) relink(p *partition.P, members []int32, a, b int) {
	m.head[a], m.head[b] = -1, -1
	for i := len(members) - 1; i >= 0; i-- {
		m.pushFront(members[i], p.Part(int(members[i])))
	}
	for _, c := range [2]int{a, b} {
		if m.head[c] >= 0 {
			m.setLive(c)
		} else {
			m.clearLive(c)
		}
	}
}

func (m *membership) setLive(a int)   { m.live[a>>6] |= 1 << (a & 63) }
func (m *membership) clearLive(a int) { m.live[a>>6] &^= 1 << (a & 63) }

// nextLive returns the lowest non-empty slot at or above a, or -1.
func (m *membership) nextLive(a int) int {
	w := a >> 6
	if w >= len(m.live) {
		return -1
	}
	word := m.live[w] &^ (1<<(a&63) - 1)
	for word == 0 {
		w++
		if w == len(m.live) {
			return -1
		}
		word = m.live[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// nthLive returns the i-th non-empty slot in ascending order (i counts
// from 0), or -1 when fewer are live.
func (m *membership) nthLive(i int) int {
	for w, word := range m.live {
		if c := bits.OnesCount64(word); i >= c {
			i -= c
			continue
		}
		for ; i > 0; i-- {
			word &= word - 1
		}
		return w<<6 + bits.TrailingZeros64(word)
	}
	return -1
}

// lowestEmpty returns the lowest empty slot, or -1 if every one of the
// slots is occupied.
func (m *membership) lowestEmpty() int {
	for w, word := range m.live {
		if word != ^uint64(0) {
			if a := w<<6 + bits.TrailingZeros64(^word); a < len(m.head) {
				return a
			}
			return -1
		}
	}
	return -1
}

// appendLive appends the non-empty slots to dst in ascending order.
func (m *membership) appendLive(dst []int) []int {
	for a := m.nextLive(0); a >= 0; a = m.nextLive(a + 1) {
		dst = append(dst, a)
	}
	return dst
}

// The search's mutations of its current molecule. Every change to s.cur
// goes through one of these, so the membership index always matches it.

// move transfers v to part `to`.
func (s *search) move(v, to int) {
	from := s.cur.Part(v)
	if from == to {
		return
	}
	s.cur.Move(v, to)
	s.mem.unlink(int32(v), from)
	s.mem.insert(int32(v), to)
	if s.cur.PartSize(from) == 0 {
		s.mem.clearLive(from)
	}
	s.mem.setLive(to)
}

// merge moves every vertex of part b into part a, in ascending vertex
// order: the order fixes the float sums of the parts' statistics. No-op
// when a == b or b is empty.
func (s *search) merge(a, b int) {
	if a == b || s.cur.PartSize(b) == 0 {
		return
	}
	for v := s.mem.head[b]; v >= 0; v = s.mem.next[v] {
		s.cur.Move(int(v), a)
	}
	s.mem.mergeInto(a, b)
}

// splitOff moves the members (the ascending vertices of atom) whose side is
// 1 into the empty slot, in ascending order. When the sides leave either
// half empty, members[0] crosses over so that both halves exist.
func (s *search) splitOff(atom, slot int, members, side []int32) {
	moved := 0
	for i, v := range members {
		if side[i] == 1 {
			s.cur.Move(int(v), slot)
			moved++
		}
	}
	if moved == 0 {
		s.cur.Move(int(members[0]), slot)
	} else if moved == len(members) {
		s.cur.Move(int(members[0]), atom)
	}
	s.mem.relink(s.cur, members, atom, slot)
}

// reset overwrites the current molecule with q and rebuilds the index.
func (s *search) reset(q *partition.P) {
	s.cur.CopyFrom(q)
	s.mem.resync(s.cur)
}
