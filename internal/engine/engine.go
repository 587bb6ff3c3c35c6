// Package engine is the shared search-engine runtime behind every
// metaheuristic in this repository (fusion-fission, simulated annealing, ant
// colony, genetic) and the cancellation-polling substrate of the classical
// solvers. It owns the run-loop plumbing the solver packages used to
// hand-roll individually:
//
//   - Loop: the anytime run loop — wall-clock budget, step cap, cadenced
//     context polling with the PR-2 Cancelled semantics, personal-best
//     tracking and the Figure-1 trace.
//   - Poll: the cadenced context check alone, for initialization phases and
//     classical solvers that have budgets of their own shape.
//   - Incumbent: a thread-safe best-so-far with copy-out, doubling as the
//     live-progress feed (steps, best objective, workers) behind the HTTP
//     API's GET /v1/jobs/{id}.
//   - Portfolio: N concurrent workers running independently seeded instances
//     of one solver, reduced deterministically to a single winner. Solvers
//     whose portfolios measurably gain from it (annealing and the GA, per
//     BENCH_exchange.json) also exchange incumbents KaFFPaE-style (Sanders &
//     Schulz, Distributed Evolutionary Graph Partitioning) at a step
//     cadence; every other portfolio is independent restarts.
//   - Relay: the cross-process side of the portfolio's exchange barrier —
//     with one attached, each round's local winner is traded against peer
//     islands (the HTTP long-poll gossip in internal/server), turning a
//     fleet of processes into one portfolio.
//
// # Determinism
//
// The portfolio is deterministic for step-capped runs: worker w derives its
// seed as DeriveSeed(seed, w) (worker 0 keeps the base seed, so a one-worker
// portfolio is bit-for-bit the serial run), incumbent exchange happens at
// fixed step indices behind a barrier — never at wall-clock times — and the
// winner is reduced by (energy, worker id). Wall-clock-budgeted runs stop at
// machine-dependent step counts and are reproducible only in distribution,
// exactly as in the serial solvers.
package engine

import (
	"context"
	"time"
)

// TracePoint records the best objective seen at a point in time — one point
// of the paper's Figure 1 anytime curves. Every solver package aliases this
// type.
type TracePoint struct {
	Elapsed time.Duration
	Energy  float64
}

// Poll checks a context at a fixed call cadence, so hot loops pay a channel
// select only once per Every calls. Once the context fires, Poll remembers
// it and every later Due call reports true immediately.
type Poll struct {
	ctx   context.Context
	done  <-chan struct{}
	every uint32
	n     uint32
	fired bool
}

// NewPoll returns a poller that actually checks ctx on the first Due call
// and then once per every calls (every <= 1 checks on each call).
func NewPoll(ctx context.Context, every int) *Poll {
	if every < 1 {
		every = 1
	}
	return &Poll{ctx: ctx, done: ctx.Done(), every: uint32(every)}
}

// Due reports whether the context has fired, checking it at the configured
// cadence.
func (p *Poll) Due() bool {
	if p.fired {
		return true
	}
	due := p.n%p.every == 0
	p.n++
	if !due {
		return false
	}
	select {
	case <-p.done:
		p.fired = true
	default:
	}
	return p.fired
}

// Err returns the context's error; non-nil once the context has fired.
func (p *Poll) Err() error { return p.ctx.Err() }

// LoopOptions configures a run loop.
type LoopOptions struct {
	// Budget caps wall-clock time from NewLoop; 0 means no time limit.
	Budget time.Duration
	// MaxSteps caps the number of granted steps; <= 0 means no step cap.
	MaxSteps int
	// PollEvery is the context-polling cadence in steps (default 64).
	// Solvers with very cheap steps raise it; solvers with expensive steps
	// set 1.
	PollEvery int
	// BudgetEvery is the wall-clock check cadence in steps (default
	// PollEvery). time.Since costs more than a channel select, so cheap-step
	// solvers check the clock less often than the context.
	BudgetEvery int
	// ProgressEvery is the cadence (in steps) of step-counter publication
	// to the shared monitor (default 256). Solvers whose steps are whole
	// iterations or generations set 1 so live progress moves in real time;
	// the publication is one atomic add, coarse enough at any cadence not
	// to contend.
	ProgressEvery int
	// Runtime optionally attaches the loop to a portfolio worker slot and
	// the live-progress incumbent. Nil for standalone serial runs.
	Runtime *Runtime
}

// Loop is the anytime run loop every metaheuristic executes inside:
//
//	loop := engine.NewLoop(ctx, engine.LoopOptions{Budget: b, MaxSteps: n})
//	for loop.Next() {
//		// one paper-specific move
//		if better {
//			loop.Improved(energy, snapshot)
//		}
//	}
//	res := Result{Steps: loop.Steps(), Trace: loop.Trace(), Cancelled: loop.Cancelled()}
//
// Next grants steps until the step cap, the budget or the context stops the
// run; the solver's loop body only expresses its paper-specific moves. A
// loop attached to a portfolio Runtime additionally publishes progress and
// exchanges incumbents at the runtime's sync cadence, invisibly to the
// solver except through Foreign.
type Loop struct {
	poll        *Poll
	start       time.Time
	budget      time.Duration
	maxSteps    int
	budgetEvery int
	step        int
	cancelled   bool
	budgetHit   bool

	rt            *Runtime
	progressEvery int
	hasBest       bool
	deposited     bool // personal best already sits in the transport slot
	bestE         float64
	snapshot      func() []int32
	foreign       *Candidate
	trace         []TracePoint
	flushed       int64 // steps already published to the monitor
}

// NewLoop starts the budget clock and returns the loop.
func NewLoop(ctx context.Context, opt LoopOptions) *Loop {
	if opt.PollEvery < 1 {
		opt.PollEvery = 64
	}
	if opt.BudgetEvery < 1 {
		opt.BudgetEvery = opt.PollEvery
	}
	if opt.ProgressEvery < 1 {
		opt.ProgressEvery = 256
	}
	l := &Loop{
		poll:          NewPoll(ctx, opt.PollEvery),
		start:         time.Now(),
		budget:        opt.Budget,
		maxSteps:      opt.MaxSteps,
		budgetEvery:   opt.BudgetEvery,
		progressEvery: opt.ProgressEvery,
		rt:            opt.Runtime,
	}
	return l
}

// Next grants one more step, or reports that the run is over: step cap
// reached, context fired (Cancelled becomes true) or budget exhausted.
// Checks happen in that order, at their configured cadences, matching the
// hand-rolled loops this type replaced.
func (l *Loop) Next() bool {
	if l.cancelled || l.budgetHit {
		return false
	}
	if l.maxSteps > 0 && l.step >= l.maxSteps {
		l.flushProgress()
		return false
	}
	if l.poll.Due() {
		l.cancelled = true
		l.flushProgress()
		return false
	}
	if l.budget > 0 && l.step%l.budgetEvery == 0 && time.Since(l.start) > l.budget {
		l.budgetHit = true
		l.flushProgress()
		return false
	}
	l.step++
	if l.rt != nil {
		l.runtimeStep()
	}
	return true
}

// PollNow checks the context immediately, outside the step cadence — for
// inner loops (per child, per walk) nested within one step.
func (l *Loop) PollNow() bool {
	if l.cancelled {
		return true
	}
	select {
	case <-l.poll.done:
		l.cancelled = true
		l.flushProgress()
	default:
	}
	return l.cancelled
}

// Improved records a new personal best: one trace point, publication to the
// live-progress monitor, and the candidate the next portfolio exchange will
// deposit. snapshot must return the partition as compact labels in [0, K);
// it is called lazily — at most once here and once per exchange — and must
// keep reflecting the solver's current best if the underlying storage is
// reused.
func (l *Loop) Improved(energy float64, snapshot func() []int32) {
	l.trace = append(l.trace, TracePoint{time.Since(l.start), energy})
	l.hasBest = true
	l.deposited = false
	l.bestE = energy
	l.snapshot = snapshot
	if l.rt != nil && l.rt.Monitor != nil {
		l.rt.Monitor.Offer(energy, snapshot)
	}
}

// Mark appends a trace point without declaring a new best (anneal marks the
// final best at the moment the loop ends, mirroring its pre-engine trace).
func (l *Loop) Mark(energy float64) {
	l.trace = append(l.trace, TracePoint{time.Since(l.start), energy})
}

// Foreign hands the solver the best incumbent another worker published, if
// it strictly beats this worker's own best; the solver adopts it at a
// natural re-seeding point (a freezing restart, a population injection).
// The candidate is cleared on take and replaced at the next exchange.
func (l *Loop) Foreign() ([]int32, float64, bool) {
	c := l.foreign
	if c == nil {
		return nil, 0, false
	}
	l.foreign = nil
	return c.Assign, c.Energy, true
}

// Finish publishes any unreported progress. Next's own exits flush
// automatically; a solver that breaks out of the loop body itself (anneal's
// no-budget freezing exit) calls Finish before assembling its result so the
// monitor's step count stays exact. Idempotent.
func (l *Loop) Finish() { l.flushProgress() }

// Steps returns the number of steps granted so far.
func (l *Loop) Steps() int { return l.step }

// Cancelled reports that the context stopped the run — the solver's own
// record of the cancellation, free of any race against the context timer.
func (l *Loop) Cancelled() bool { return l.cancelled }

// Elapsed is the time since the loop (and its budget clock) started.
func (l *Loop) Elapsed() time.Duration { return time.Since(l.start) }

// Trace returns the accumulated anytime trace.
func (l *Loop) Trace() []TracePoint { return l.trace }

// runtimeStep publishes progress and runs the barrier exchange at their
// cadences. Called once per granted step when a Runtime is attached.
func (l *Loop) runtimeStep() {
	rt := l.rt
	if rt.Monitor != nil && l.step%l.progressEvery == 0 {
		l.flushProgress()
	}
	if rt.transport != nil && rt.SyncEvery > 0 && l.step%rt.SyncEvery == 0 {
		l.exchange()
	}
}

// exchange deposits this worker's personal best and waits for the round's
// winner; a strictly better foreign winner is surfaced through Foreign.
// Slots persist across rounds, so an unchanged best is not re-snapshotted
// or re-deposited.
func (l *Loop) exchange() {
	rt := l.rt
	var own Candidate
	if l.hasBest && !l.deposited {
		own = Candidate{Assign: l.snapshot(), Energy: l.bestE, Worker: rt.Worker, Has: true}
		l.deposited = true
	}
	win, ok := rt.transport.Sync(rt.Worker, own)
	if ok && !rt.ownCandidate(win) && (!l.hasBest || win.Energy < l.bestE) {
		l.foreign = &win
	}
}

// flushProgress publishes the unreported step delta to the monitor.
func (l *Loop) flushProgress() {
	if l.rt == nil || l.rt.Monitor == nil {
		return
	}
	if d := int64(l.step) - l.flushed; d > 0 {
		l.rt.Monitor.AddSteps(d)
		l.flushed = int64(l.step)
	}
}
