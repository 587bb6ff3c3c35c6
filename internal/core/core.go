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
// restarts from the best partition found, reheated to TMax.
//
// The five tunable parameters the paper counts are TMax, TMin and NbT for
// the temperature plus Kappa and R in the choice function alpha(t).
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/fastmath"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
)

// Options configures fusion-fission.
type Options struct {
	// Objective is the criterion to minimize (default MCut, the paper's
	// ATC objective).
	Objective objective.Objective
	// TMax and TMin bound the temperature (defaults 1.0 and 0.02).
	TMax, TMin float64
	// NbT is the number of cooling steps from TMax to TMin (default 400).
	NbT int
	// Kappa and R shape the choice function alpha(t) = Kappa*(TMax-t)/
	// (TMax-TMin) + R (defaults 2.0 and 1.0 — the paper leaves both "to be
	// adjusted by the user"; R = 1 keeps the fusion/fission band tight even
	// when hot, which tunes best on the airspace workload). Larger alpha
	// narrows the size band within which both fusion and fission stay
	// likely.
	Kappa, R float64
	// LawDelta is the law-learning increment (default 0.04).
	LawDelta float64
	// MaxSteps caps the number of fusion/fission events (default 60000).
	MaxSteps int
	// Budget caps wall-clock time; 0 means no limit.
	Budget time.Duration
	// Seed drives all randomness.
	Seed int64
	// Initial optionally replaces the Algorithm 2 initialization.
	Initial *partition.P
	// Runtime optionally attaches the run to a shared engine runtime — the
	// portfolio incumbent exchange and the live-progress monitor. Nil for
	// standalone runs.
	Runtime *engine.Runtime
	// Choice selects the fusion/fission decision rule; see ChoiceFunc.
	Choice ChoiceFunc
	// DisablePercolationFission splits atoms randomly instead of with
	// percolation (ablation of section 4.4).
	DisablePercolationFission bool
	// DisableLawLearning freezes the laws at uniform (ablation).
	DisableLawLearning bool
}

// ChoiceFunc selects the rule mapping atom size to fission probability.
// The paper presents the clamped linear rule and remarks that "other choice
// functions not presented here give better results, but are much more
// complicated"; the sigmoid rule is one such smoother alternative.
type ChoiceFunc int

const (
	// ChoiceLinear is the paper's rule: fission probability 0 below
	// nBar - 1/(2 alpha), 1 above nBar + 1/(2 alpha), linear in between.
	ChoiceLinear ChoiceFunc = iota
	// ChoiceSigmoid replaces the clamped ramp with the logistic curve
	// 1/(1+exp(-2 alpha (x - nBar))): same center and slope at the center,
	// but oversized and undersized atoms retain a small chance of the
	// "wrong" event, which preserves exploration as the system cools.
	ChoiceSigmoid
)

func (o Options) withDefaults() Options {
	if o.TMax == 0 {
		o.TMax = 1.0
	}
	if o.TMin == 0 {
		o.TMin = 0.02
	}
	if o.NbT == 0 {
		o.NbT = 400
	}
	if o.Kappa == 0 {
		o.Kappa = 2.0
	}
	if o.R == 0 {
		o.R = 1.0
	}
	if o.LawDelta == 0 {
		o.LawDelta = 0.04
	}
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
	if opt.TMin >= opt.TMax {
		return nil, fmt.Errorf("core: TMin=%g must be below TMax=%g", opt.TMin, opt.TMax)
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
		s.cur = opt.Initial.Clone()
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
	t := opt.TMax
	cool := (opt.TMax - opt.TMin) / float64(opt.NbT)
	for loop.Next() {
		atom := s.chooseAtom()
		if atom < 0 {
			break
		}
		tFrac := (t - opt.TMin) / (opt.TMax - opt.TMin)
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
			s.laws.update(kind, size, eject, newE < prevE, opt.LawDelta)
		}
		prevE = newE

		t -= cool
		if t <= opt.TMin {
			// Freezing point: every loose nucleon settles (cold
			// consolidation), then the search restarts from the best
			// partition, reheated — a portfolio peer's strictly better
			// incumbent wins over our own if one arrived.
			s.relaxAll()
			s.afterEvent(loop)
			if !s.adoptForeign(loop) {
				s.cur.CopyFrom(s.bestOverall)
			}
			prevE = s.energy.energy(s.cur)
			t = opt.TMax
		}
	}

	if s.bestAtK == nil {
		// The search never visited exactly K atoms (tiny budgets): force
		// the best overall partition to K parts and take that.
		s.cur.CopyFrom(s.bestOverall)
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
	opt := s.opt
	x := float64(s.cur.PartSize(atom))
	nBar := float64(s.g.NumVertices()) / float64(s.k)
	alpha := opt.Kappa*(opt.TMax-t)/(opt.TMax-opt.TMin) + opt.R
	if alpha <= 0 {
		alpha = 1e-9
	}
	var pFission float64
	if opt.Choice == ChoiceSigmoid {
		pFission = sigmoidChoice(alpha, x, nBar)
	} else {
		switch half := 1 / (2 * alpha); {
		case x > nBar+half:
			pFission = 1
		case x < nBar-half:
			pFission = 0
		default:
			pFission = alpha*(x-nBar) + 0.5
		}
	}
	if s.cur.NumParts() <= 2 {
		pFission = math.Max(pFission, 0.1) // never collapse to one atom
	}
	if s.cur.PartSize(atom) < 2 {
		return false // singletons cannot split
	}
	return s.r.Float64() < pFission
}

// sigmoidChoice is the ChoiceSigmoid fission probability
// 1/(1+exp(-2 alpha (x-nBar))), with the exponent clamped before the
// exponential is evaluated: the former inline math.Exp was unguarded, so a
// large cold-phase alpha on a far-oversized atom drove the argument past the
// overflow threshold and the probability silently through Inf arithmetic.
// |z| > 700 now short-circuits to the saturated 0/1 the sigmoid converges
// to, and a NaN argument (degenerate alpha) keeps the legacy
// "comparison-with-NaN never fissions" behavior explicitly. The interior
// uses fastmath.Exp; the default Choice is the paper's piecewise-linear law,
// so golden trajectories are unaffected.
func sigmoidChoice(alpha, x, nBar float64) float64 {
	z := -2 * alpha * (x - nBar)
	switch {
	case math.IsNaN(z):
		return 0 // never fission, as the old NaN-poisoned compare decided
	case z > 700:
		return 0 // exp overflows: sigmoid saturated at 0
	case z < -700:
		return 1 // exp underflows: sigmoid saturated at 1
	}
	return 1 / (1 + fastmath.Exp(z))
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
