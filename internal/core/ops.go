package core

import "repro/internal/rng"

// Structural operators of the fusion-fission method: atom selection, fusion
// partner choice (by size, distance and temperature), percolation fission,
// ejection of loosely bound nucleons, and nucleon reabsorption (nfusion).
// They work on the search's current molecule through its reusable scratch,
// so an event allocates nothing.

// chooseAtom returns a uniformly random non-empty part id, or -1.
func (s *search) chooseAtom() int {
	n := s.cur.NumParts()
	if n == 0 {
		return -1
	}
	return s.mem.nthLive(s.r.Intn(n))
}

// choosePartner picks the atom to fuse with `atom`. The paper selects it
// "according to its size, its distance to the first one, and temperature":
// the distance between two atoms is the inverse of the connecting edge
// weight (infinite when unconnected), so the selection probability is
// proportional to the connection weight; high temperature tilts the draw
// toward big partners (hot plasma fuses heavy nuclei more easily). Partners
// whose combined weight would exceed maxPartVW are excluded so that
// size-insensitive objectives cannot grow one giant atom. Candidates are
// drawn in ascending part order, so the draw is deterministic by seed.
func (s *search) choosePartner(atom int, tFrac float64) int {
	p := s.cur
	conn := s.connected(atom)
	if len(conn) == 0 {
		return -1
	}
	ownVW := p.PartVertexWeight(atom)
	meanSize := float64(s.g.NumVertices()) / float64(max(1, p.NumParts()))
	ids, weights := s.ids[:0], s.weights[:0]
	for _, b := range conn {
		if s.maxPartVW > 0 && ownVW+p.PartVertexWeight(b) > s.maxPartVW {
			continue
		}
		ids = append(ids, b)
		bias := 1 + tFrac*float64(p.PartSize(b))/meanSize
		weights = append(weights, s.conn.W[b]*bias)
	}
	s.ids, s.weights = ids, weights
	pick := rng.WeightedChoice(s.r, weights)
	if pick < 0 {
		return -1
	}
	return ids[pick]
}

// connected returns the atoms joined to atom a by at least one edge, in
// ascending order, and sets s.conn.W to their connection weights.
func (s *search) connected(a int) []int {
	s.members = s.mem.appendMembers(s.members[:0], a)
	return s.conn.Of(s.cur, s.members)
}

// fuse merges partner into atom and returns the merged part id.
func (s *search) fuse(atom, partner int) int {
	s.merge(atom, partner)
	return atom
}

// fissionSplit cuts the given atom in two with percolation (section 4.4):
// two seeds are chosen as a farthest pair inside the atom's induced
// subgraph and the liquids split it (percolation.Splitter, which works on
// the parent graph through a membership mask). Returns the new part id, or
// -1 if the atom cannot be split. With DisablePercolationFission (ablation)
// the split is a random one.
func (s *search) fissionSplit(atom int) int {
	members := s.mem.appendMembers(s.members[:0], atom)
	s.members = members
	if len(members) < 2 {
		return -1
	}
	slot := s.mem.lowestEmpty()
	if slot < 0 {
		return -1
	}
	var side []int32
	if s.opt.DisablePercolationFission {
		side = s.side[:len(members)]
		for i := range side {
			side[i] = int32(s.r.Intn(2))
		}
	} else {
		side = s.splitter.Split(members, s.r.Intn(len(members)))
	}
	s.splitOff(atom, slot, members, side)
	return slot
}

// selectEjections returns up to j vertices of the atom that are the most
// loosely bound: smallest internal-minus-external connection, the nucleons
// a nuclear event would spray out, loosest first. Vertices are only ejected
// while the atom keeps at least one member. j is a law-drawn count of at
// most maxEject, so the j loosest are kept by insertion into a short sorted
// list instead of sorting every member. The result is valid until the next
// call.
func (s *search) selectEjections(atom, j int) []int {
	p := s.cur
	members := s.mem.appendMembers(s.members[:0], atom)
	s.members = members
	if j <= 0 || len(members) <= 1 {
		return nil
	}
	if j > len(members)-1 {
		j = len(members) - 1
	}
	top := s.loosest[:0]
	for _, v := range members {
		internal := p.ConnectionToPart(int(v), atom)
		external := s.g.WeightedDegree(int(v)) - internal
		c := ejectCand{v: int(v), bind: internal - external, bound: external > 0}
		if len(top) == j {
			if !c.looserThan(top[j-1]) {
				continue
			}
			top = top[:j-1]
		}
		top = append(top, c)
		for i := len(top) - 1; i > 0 && top[i].looserThan(top[i-1]); i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
	}
	s.loosest = top
	out := s.ejected[:0]
	for _, c := range top {
		out = append(out, c.v)
	}
	s.ejected = out
	return out
}

// ejectCand scores how loosely a nucleon is bound to its atom.
type ejectCand struct {
	v     int
	bind  float64 // internal minus external connection weight
	bound bool    // has any external connection
}

// looserThan orders candidates loosest-first, preferring nucleons with
// external contacts, which can be reabsorbed meaningfully. It is a strict
// total order (ties fall to the vertex id).
func (a ejectCand) looserThan(b ejectCand) bool {
	if a.bound != b.bound {
		return a.bound
	}
	if a.bind != b.bind {
		return a.bind < b.bind
	}
	return a.v < b.v
}

// nfusion reabsorbs a free nucleon into the connected atom with the
// strongest bond, excluding `exclude` (its previous atom) when another
// option exists and skipping atoms already heavier than maxPartVW. Returns
// the receiving part id.
func (s *search) nfusion(v int, exclude int) int {
	p := s.cur
	own := p.Part(v)
	bestPart, bestW := -1, 0.0
	cands := s.cands[:0]
	for _, b := range s.nbr.Gather(p, v) {
		if b != own {
			cands = append(cands, b)
		}
	}
	s.cands = cands
	vw := s.g.VertexWeight(v)
	for _, b := range cands {
		if b == exclude && len(cands) > 1 {
			continue
		}
		if s.maxPartVW > 0 && p.PartVertexWeight(b)+vw > s.maxPartVW {
			continue
		}
		if w := p.ConnectionToPart(v, b); w > bestW {
			bestPart, bestW = b, w
		}
	}
	if bestPart >= 0 && p.PartSize(own) > 1 {
		s.move(v, bestPart)
	}
	return p.Part(v)
}

// strongestOtherAtom returns the part (different from v's) to which v is
// most strongly connected, or -1.
func (s *search) strongestOtherAtom(v int) int {
	p := s.cur
	own := p.Part(v)
	best, bestW := -1, 0.0
	for _, b := range s.nbr.Gather(p, v) {
		if b == own {
			continue
		}
		if w := p.ConnectionToPart(v, b); w > bestW {
			best, bestW = b, w
		}
	}
	return best
}
