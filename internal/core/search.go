package core

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/percolation"
	"repro/internal/rng"
	"repro/internal/score"
)

// search carries the mutable state of one fusion-fission run. newSearch
// allocates it once, in O(n + slots) memory; the few scratch slices it
// leaves empty grow to their need in the first events. The membership
// index, not a scan, says which vertices an atom holds and which atoms are
// live, so an event costs time in the size of the atoms it touches, not in
// n or in the slot count.
type search struct {
	g    *graph.Graph
	k    int
	opt  Options
	r    *rand.Rand
	laws *laws

	energy *energyModel
	cur    *partition.P
	// mem indexes cur by atom (membership.go). Every mutation of cur goes
	// through the search's move, merge, splitOff and reset wrappers, which
	// keep it current, so no event scans all n vertices or slots.
	mem membership
	// maxPartVW softly caps vertex-level flows into any single atom so
	// that size-insensitive objectives (Cut) cannot grow one giant part;
	// the sets must stay "of roughly equal size" (section 1).
	maxPartVW float64

	bestOverall  *partition.P // lowest scaled energy, any atom count
	bestOverallE float64
	bestAtK      *partition.P // lowest raw objective among exactly-K states
	bestAtKE     float64
	bestAtKSnap  func() []int32 // bestAtK.Compact, bound once
	bestPerK     map[int]float64

	// Scratch reused by every event; once grown, the loop allocates nothing.
	splitter *percolation.Splitter
	members  []int32               // vertices of the atom being operated on
	parts    []int                 // non-empty part ids (normalizeToK)
	nbr      score.Conns           // a nucleon's neighbouring atoms and weights
	conn     partition.Connections // parts an atom touches, with weights
	ids      []int                 // fusion partner candidates
	weights  []float64             // and their draw weights
	cands    []int                 // nfusion candidate atoms
	loosest  []ejectCand           // selectEjections' running top j
	ejected  []int                 // selectEjections' result
	side     []int32               // random fission sides (ablation only)
}

func newSearch(g *graph.Graph, k int, opt Options) *search {
	// Ncut and Mcut penalize starved parts through their denominators, so
	// atoms self-balance and a loose cap suffices; plain Cut has no such
	// pressure — there the "roughly equal size" constraint of section 1 is
	// what makes min-cut non-trivial, so the cap is tight.
	capFactor := 2.0
	if opt.Objective == objective.Cut {
		capFactor = 1.3
	}
	n := g.NumVertices()
	// Part slots: n, or the wider capacity of a caller's initial partition.
	slots := n
	if opt.Initial != nil && opt.Initial.Capacity() > n {
		slots = opt.Initial.Capacity()
	}
	s := &search{
		g:            g,
		k:            k,
		opt:          opt,
		r:            rng.New(opt.Seed),
		laws:         newLaws(n),
		energy:       newEnergyModel(g, opt.Objective, k),
		cur:          partition.New(g, n),
		mem:          newMembership(n, slots),
		maxPartVW:    capFactor * g.TotalVertexWeight() / float64(k),
		bestOverallE: math.Inf(1),
		bestAtKE:     math.Inf(1),
		bestPerK:     make(map[int]float64),
		splitter:     percolation.NewSplitter(g),
		members:      make([]int32, 0, n),
		loosest:      make([]ejectCand, 0, maxEject),
		ejected:      make([]int, 0, maxEject),
	}
	if opt.DisablePercolationFission {
		s.side = make([]int32, n)
	}
	return s
}

// afterEvent updates the incumbents and the trace from the current state
// and returns its scaled energy. The first state seen is always recorded,
// even at infinite energy (e.g. K = n, where every exactly-K molecule is
// all singletons and Mcut/Ncut diverge) — a nil incumbent must never
// survive a visit to a valid state.
func (s *search) afterEvent(loop *engine.Loop) float64 {
	e, raw := s.energy.both(s.cur, s.mem.live)
	if s.bestOverall == nil || e < s.bestOverallE {
		s.bestOverallE = e
		if s.bestOverall == nil {
			s.bestOverall = s.cur.Clone()
		} else {
			s.bestOverall.CopyFrom(s.cur)
		}
	}
	kNow := s.cur.NumParts()
	if old, ok := s.bestPerK[kNow]; !ok || raw < old {
		s.bestPerK[kNow] = raw
	}
	if kNow == s.k && (s.bestAtK == nil || raw < s.bestAtKE) {
		s.bestAtKE = raw
		if s.bestAtK == nil {
			s.bestAtK = s.cur.Clone()
			s.bestAtKSnap = s.bestAtK.Compact
		} else {
			s.bestAtK.CopyFrom(s.cur)
		}
		loop.Improved(raw, s.bestAtKSnap)
	}
	return e
}

// initialize is Algorithm 2: the run starts from the molecule in which every
// vertex is its own atom (maximal energy) and fusion events — with law-drawn
// nucleon ejections, but no temperature and no nucleon-induced fission —
// group the atoms until the target count is reached. It reports false if ctx
// was cancelled before the molecule was fully condensed.
func (s *search) initialize(ctx context.Context) bool {
	n := s.g.NumVertices()
	for v := 0; v < n; v++ {
		s.cur.Assign(v, v) // atom per vertex
	}
	s.mem.resync(s.cur)
	poll := engine.NewPoll(ctx, 64)
	nBar := float64(n) / float64(s.k)
	maxSteps := 8 * n // generous: each fusion removes an atom
	// Law learning compares the energy after each event with the energy
	// before it, which is the energy after the previous event.
	learn := !s.opt.DisableLawLearning
	var prevE float64
	if learn {
		prevE = s.energy.energy(s.cur, s.mem.live)
	}
	learnFrom := func(kind lawKind, size, eject int) {
		if learn {
			e := s.energy.energy(s.cur, s.mem.live)
			s.laws.update(kind, size, eject, e < prevE, lawDelta)
			prevE = e
		}
	}
	for step := 0; step < maxSteps && s.cur.NumParts() > s.k; step++ {
		if poll.Due() {
			return false
		}
		atom := s.chooseAtom()
		if atom < 0 {
			break
		}
		// Initialization heuristic: fuse while the atom is below the mean
		// size, occasionally split clearly oversized atoms.
		size := float64(s.cur.PartSize(atom))
		if size > 2*nBar && s.cur.PartSize(atom) >= 2 && s.r.Float64() < 0.5 {
			eject := s.laws.draw(lawFission, int(size), s.r.Float64())
			if s.fissionSplit(atom) >= 0 {
				for _, v := range s.selectEjections(atom, eject) {
					s.nfusion(v, atom)
				}
				learnFrom(lawFission, int(size), eject)
			}
			continue
		}
		partner := s.choosePartner(atom, 0)
		if partner < 0 {
			continue
		}
		merged := s.fuse(atom, partner)
		msize := s.cur.PartSize(merged)
		eject := s.laws.draw(lawFusion, msize, s.r.Float64())
		for _, v := range s.selectEjections(merged, eject) {
			s.nfusion(v, merged)
		}
		learnFrom(lawFusion, msize, eject)
	}
	return true
}

// relaxAtoms runs one pass of nucleon relaxation over the boundary of the
// given atom and its neighborhood: every nucleon of the atom whose move to a
// connected atom lowers the scaled energy is reabsorbed there (the same
// nucleon-movement mechanism as ejection, applied until the event's region
// is locally stable). Part counts never change — a nucleon never leaves a
// singleton — so the penalty term is constant across the candidate moves.
func (s *search) relaxAtoms(atom int) {
	if s.cur.PartSize(atom) == 0 {
		return
	}
	s.members = s.mem.appendMembers(s.members[:0], atom)
	for _, v := range s.members {
		s.relaxNucleon(int(v))
	}
}

// relaxNucleon moves v to the connected atom, below the soft weight cap,
// whose move lowers the scaled energy the most, if any does, and reports
// whether it moved. One pass over v's adjacency gathers its weight to every
// neighbouring atom, after which each candidate costs O(1) instead of a
// full objective evaluation or a fresh adjacency scan. Candidates are tried
// in first-seen adjacency order; a later one wins only if strictly better.
func (s *search) relaxNucleon(v int) bool {
	from := s.cur.Part(v)
	if s.cur.PartSize(from) <= 1 {
		return false
	}
	bestTo, bestDelta := -1, -1e-12
	vw := s.g.VertexWeight(v)
	for _, b := range s.nbr.Gather(s.cur, v) {
		if b == from || s.cur.PartVertexWeight(b)+vw > s.maxPartVW {
			continue
		}
		if d := s.energy.moveDelta(s.cur, &s.nbr, from, b); d < bestDelta {
			bestTo, bestDelta = b, d
		}
	}
	if bestTo < 0 {
		return false
	}
	s.move(v, bestTo)
	return true
}

// relaxAll sweeps every atom once with nucleon relaxation — the freezing-
// point consolidation: at minimal temperature every loose nucleon settles
// into its best-bound atom (section 4.2's cold regime, where ejected
// nucleons are "incorporated into atoms"). Runs once per temperature cycle.
func (s *search) relaxAll() {
	for pass := 0; pass < 2; pass++ {
		moved := false
		for v := 0; v < s.g.NumVertices(); v++ {
			if s.relaxNucleon(v) {
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// normalizeToK forces the current partition to exactly k non-empty parts by
// merging the most-connected pairs (k' > k) or percolation-splitting the
// largest atoms (k' < k).
func (s *search) normalizeToK() {
	for s.cur.NumParts() > s.k {
		a, b := s.bestMergePair()
		if a < 0 {
			// No connected pair (disconnected leftovers): merge the two
			// smallest parts.
			parts := s.mem.appendLive(s.parts[:0])
			s.parts = parts
			sort.Slice(parts, func(i, j int) bool {
				return s.cur.PartSize(parts[i]) < s.cur.PartSize(parts[j])
			})
			a, b = parts[0], parts[1]
		}
		s.merge(a, b)
	}
	for s.cur.NumParts() < s.k {
		largest := -1
		for a := s.mem.nextLive(0); a >= 0; a = s.mem.nextLive(a + 1) {
			if largest < 0 || s.cur.PartSize(a) > s.cur.PartSize(largest) {
				largest = a
			}
		}
		if largest < 0 || s.cur.PartSize(largest) < 2 {
			break
		}
		if s.fissionSplit(largest) < 0 {
			break
		}
	}
}

// bestMergePair returns the connected pair of parts whose merge costs the
// least objective increase per the connection weight — i.e. the pair with
// the strongest mutual connection (smallest paper-distance). Ties go to the
// lowest (a, b).
func (s *search) bestMergePair() (int, int) {
	bestA, bestB, bestW := -1, -1, -1.0
	for a := s.mem.nextLive(0); a >= 0; a = s.mem.nextLive(a + 1) {
		for _, b := range s.connected(a) {
			if b > a && s.conn.W[b] > bestW {
				bestA, bestB, bestW = a, b, s.conn.W[b]
			}
		}
	}
	return bestA, bestB
}

// repairInfinite handles the runs whose every exactly-K molecule had a
// part with a cut but no internal weight, so that the best one scores
// Mcut = +Inf. Starting from that molecule, each such atom merges into the
// atom it is most strongly connected to, the largest atoms are
// percolation-split back to K, and every nucleon relaxes; afterEvent then
// keeps the result if it is finite. Runs that end finite never get here,
// nor do cancelled runs, which reply at once, nor K = n, where every
// exactly-K molecule is all singletons and no repair can help.
func (s *search) repairInfinite(loop *engine.Loop) {
	if s.bestAtK == nil || !math.IsInf(s.bestAtKE, 1) ||
		loop.Cancelled() || s.k >= s.g.NumVertices() {
		return
	}
	s.reset(s.bestAtK)
	// Merging a into another atom empties only a itself, so walking the
	// live set as it changes visits the atoms live at the start.
	for a := s.mem.nextLive(0); a >= 0; a = s.mem.nextLive(a + 1) {
		if s.cur.PartInternalOrdered(a) > 0 || s.cur.PartCut(a) == 0 {
			continue
		}
		to, toW := -1, 0.0
		for _, b := range s.connected(a) {
			if s.conn.W[b] > toW {
				to, toW = b, s.conn.W[b]
			}
		}
		if to >= 0 {
			s.merge(to, a)
		}
	}
	s.normalizeToK()
	s.relaxAll()
	s.afterEvent(loop)
}
