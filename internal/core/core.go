// Package core implements the paper's contribution: the fusion-fission
// metaheuristic for k-way graph partitioning (section 4).
//
// A partition is viewed as matter: vertices are nucleons, parts are atoms,
// the partition is a molecule. The search repeatedly selects an atom and
// either fuses it with a connected atom (chosen by size, distance — the
// inverse of the connecting weight — and temperature) or breaks it in two
// with the percolation process of section 4.4. Events may eject nucleons,
// with counts drawn from learned laws (one fusion law and one fission law
// per atom size, reinforced when they lower the energy); at high temperature
// an ejected nucleon can trigger a further simple fission of the atom it
// strikes, at low temperature it is absorbed by its best-connected
// neighbor atom.
//
// Unlike every classical method, the number of parts drifts around the
// target K during the search; a binding-energy-shaped scaling of the
// objective (see energy.go) makes energies comparable across part counts.
// Temperature decreases linearly (the paper: "the temperature will decrease
// nbt times before reaching tmin"); at the freezing point the search
// restarts from the best partition found, reheated to tMax. The paper's
// tuning parameters are fixed constants of this package.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
)

// Options configures fusion-fission.
type Options struct {
	// Objective is the criterion to minimize (default MCut, the paper's
	// ATC objective).
	Objective objective.Objective
	// MaxSteps caps the number of fusion/fission events (default 60000).
	MaxSteps int
	// Budget caps wall-clock time; 0 means no limit.
	Budget time.Duration
	// Seed drives all randomness.
	Seed int64
	// Initial optionally replaces the Algorithm 2 initialization. It must
	// assign every vertex and have at least one part slot per vertex.
	Initial *partition.P
	// Runtime optionally attaches the run to a portfolio worker slot and
	// the live-progress monitor. The search never adopts another worker's
	// incumbent, so a portfolio of it is independent restarts. Nil for
	// standalone runs.
	Runtime *engine.Runtime
	// DisablePercolationFission splits atoms randomly instead of with
	// percolation (ablation of section 4.4).
	DisablePercolationFission bool
	// DisableLawLearning freezes the laws at uniform (ablation).
	DisableLawLearning bool
}

// The paper's tuning parameters, fixed. They are typed so that constant
// arithmetic rounds to float64 at each step, exactly as the run-time
// arithmetic on the former option fields did.
const (
	// tMax and tMin bound the temperature.
	tMax float64 = 1.0
	tMin float64 = 0.02
	// nbT is the number of cooling steps from tMax to tMin.
	nbT = 400
	// kappa and r shape the choice function alpha(t) = kappa*(tMax-t)/
	// (tMax-tMin) + r. The paper leaves both "to be adjusted by the user";
	// r = 1 keeps the fusion/fission band tight even when hot, which tunes
	// best on the airspace workload. Larger alpha narrows the size band
	// within which both fusion and fission stay likely.
	kappa float64 = 2.0
	r     float64 = 1.0
	// lawDelta is the law-learning increment.
	lawDelta float64 = 0.04
)

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 60_000
	}
	return o
}

// TracePoint records the best K-part objective at a point in time.
type TracePoint = engine.TracePoint

// Result is the fusion-fission outcome.
type Result struct {
	// Best is the best partition found with exactly K parts.
	Best *partition.P
	// Energy is the raw (unscaled) objective of Best.
	Energy float64
	// BestPerK maps each visited atom count to the best raw objective seen
	// at that count — the paper reports FF "returns good solutions from 27
	// to 38 partitions" around K = 32.
	BestPerK map[int]float64
	// Steps is the number of fusion/fission events executed.
	Steps int
	// Trace records improvements of the best K-part objective over time.
	Trace []TracePoint
	// Cancelled reports that the search was interrupted by context
	// cancellation and Best is the best partition found so far.
	Cancelled bool
}

// Partition runs fusion-fission on g for k parts.
func Partition(g *graph.Graph, k int, opt Options) (*Result, error) {
	return PartitionContext(context.Background(), g, k, opt)
}

// PartitionContext is Partition under cooperative cancellation: the event
// loop polls ctx once per fusion/fission event (alongside the budget check)
// and, once ctx fires, returns the best partition found so far with
// Result.Cancelled set. A context that is done before the Algorithm 2
// initialization produces a first molecule yields (nil, ctx.Err()).
func PartitionContext(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := g.NumVertices()
	if k < 2 || k > n {
		return nil, fmt.Errorf("core: k=%d out of range [2,%d]", k, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newSearch(g, k, opt)
	// The loop's budget clock starts here, before the Algorithm 2
	// initialization, exactly as the hand-rolled clock did.
	loop := engine.NewLoop(ctx, engine.LoopOptions{
		Budget: opt.Budget, MaxSteps: opt.MaxSteps,
		PollEvery: 1, BudgetEvery: 64,
		Runtime: opt.Runtime,
	})

	if opt.Initial != nil {
		if opt.Initial.Graph() != g {
			return nil, fmt.Errorf("core: initial partition is for a different graph")
		}
		if opt.Initial.Capacity() < n {
			return nil, fmt.Errorf("core: initial partition needs capacity n=%d for atoms to split freely", n)
		}
		if !opt.Initial.Complete() {
			return nil, fmt.Errorf("core: initial partition must assign every vertex")
		}
		s.cur = opt.Initial.Clone()
		s.mem.resync(s.cur)
	} else if !s.initialize(ctx) { // Algorithm 2
		// Cancelled before the molecule condensed near K atoms: there is no
		// meaningful best-so-far, and normalizing a half-initialized
		// molecule would cost more than the caller is willing to wait.
		return nil, ctx.Err()
	}
	s.normalizeToK()
	// prevE is the scaled energy of the current molecule: each event's
	// "before" energy is the previous event's "after" energy.
	prevE := s.afterEvent(loop)

	// Algorithm 1. Only the paper-specific event remains in the body: the
	// engine loop owns budget, step cap and cancellation.
	t := tMax
	cool := (tMax - tMin) / float64(nbT)
	for loop.Next() {
		atom := s.chooseAtom()
		if atom < 0 {
			break
		}
		tFrac := (t - tMin) / (tMax - tMin)
		var kind lawKind
		var size int
		var eject int
		if s.drawFission(atom, t) {
			kind = lawFission
			size = s.cur.PartSize(atom)
			eject = s.laws.draw(kind, size, s.r.Float64())
			slot := s.doFission(atom, eject, tFrac)
			s.relaxAtoms(atom)
			if slot >= 0 {
				s.relaxAtoms(slot) // the other fragment settles too
			}
		} else {
			kind = lawFusion
			partner := s.choosePartner(atom, tFrac)
			if partner < 0 {
				continue // isolated atom: nothing to fuse with
			}
			merged := s.fuse(atom, partner)
			size = s.cur.PartSize(merged)
			eject = s.laws.draw(kind, size, s.r.Float64())
			for _, v := range s.selectEjections(merged, eject) {
				s.nfusion(v, merged)
			}
			s.relaxAtoms(merged)
		}
		newE := s.afterEvent(loop)
		if !opt.DisableLawLearning {
			s.laws.update(kind, size, eject, newE < prevE, lawDelta)
		}
		prevE = newE

		t -= cool
		if t <= tMin {
			// Freezing point: every loose nucleon settles (cold
			// consolidation), then the search restarts from the best
			// partition, reheated.
			s.relaxAll()
			s.afterEvent(loop)
			s.reset(s.bestOverall)
			prevE = s.energy.energy(s.cur, s.mem.live)
			t = tMax
		}
	}

	if s.bestAtK == nil {
		// The search never visited exactly K atoms (tiny budgets): force
		// the best overall partition to K parts and take that.
		s.reset(s.bestOverall)
		s.normalizeToK()
		s.afterEvent(loop)
	}
	s.repairInfinite(loop)
	loop.Finish()
	best := s.bestAtK
	res := &Result{
		Best:      best,
		Energy:    s.energy.raw(best),
		BestPerK:  s.bestPerK,
		Steps:     loop.Steps(),
		Trace:     loop.Trace(),
		Cancelled: loop.Cancelled(),
	}
	return res, nil
}

// drawFission applies the paper's choice function: with x the atom size and
// nBar = n/K, choice(x) is the probability of fission — 1 for atoms larger
// than nBar + 1/(2 alpha(t)), 0 below nBar - 1/(2 alpha(t)), and linear in
// between. alpha grows as the system cools, sharpening the band.
func (s *search) drawFission(atom int, t float64) bool {
	x := float64(s.cur.PartSize(atom))
	nBar := float64(s.g.NumVertices()) / float64(s.k)
	alpha := kappa*(tMax-t)/(tMax-tMin) + r
	if alpha <= 0 {
		alpha = 1e-9
	}
	var pFission float64
	switch half := 1 / (2 * alpha); {
	case x > nBar+half:
		pFission = 1
	case x < nBar-half:
		pFission = 0
	default:
		pFission = alpha*(x-nBar) + 0.5
	}
	if s.cur.NumParts() <= 2 {
		pFission = math.Max(pFission, 0.1) // never collapse to one atom
	}
	if s.cur.PartSize(atom) < 2 {
		return false // singletons cannot split
	}
	return s.r.Float64() < pFission
}

// doFission breaks the atom with percolation, ejects nucleons per the law,
// and lets hot nucleons trigger simple fissions of the atoms they strike
// (section 4.2: "if temperature is high, these nucleons can produce another
// simple fission, with no nucleon ejected"). It returns the new fragment's
// part id, or -1 if the atom could not be split.
func (s *search) doFission(atom, eject int, tFrac float64) int {
	slot := s.fissionSplit(atom)
	if slot < 0 {
		return -1
	}
	// Eject from whichever half is larger (the heavy fragment sprays).
	src := atom
	if s.cur.PartSize(slot) > s.cur.PartSize(atom) {
		src = slot
	}
	for _, v := range s.selectEjections(src, eject) {
		if s.highEnergy(tFrac) {
			// The nucleon strikes its best-connected atom and splits it.
			target := s.strongestOtherAtom(v)
			if target >= 0 && s.cur.PartSize(target) >= 2 {
				s.fissionSplit(target)
			}
		}
		s.nfusion(v, src)
	}
	return slot
}

func (s *search) highEnergy(tFrac float64) bool {
	return s.r.Float64() < tFrac
}
