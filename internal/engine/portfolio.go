package engine

import (
	"context"
	"runtime"
	"sync"
)

// DeriveSeed maps (base seed, worker index) to statistically independent
// seeds with a splitmix64 finalizer, so parallel workers are not
// seed-correlated. Worker 0 keeps the base seed itself: a one-worker
// portfolio consumes exactly the serial solver's random stream. In a
// federated run the index is the worker's global index across the fleet
// (island × width + local index), so two islands sharing a base seed never
// run identical streams.
func DeriveSeed(base int64, worker int) int64 {
	if worker == 0 {
		return base
	}
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(worker)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Runtime attaches one worker's Loop to the portfolio's shared state. The
// zero value (and nil) mean a standalone serial run.
type Runtime struct {
	// Monitor receives live progress (steps, best objective); may be nil.
	Monitor *Incumbent
	// Worker is this worker's index in [0, Workers).
	Worker int
	// Island is this process's island index in a federated run; 0 otherwise.
	// Winner candidates carry (island, worker) coordinates, so a worker
	// recognizes its own round win only when both match.
	Island int
	// SyncEvery is the incumbent-exchange cadence in loop steps; 0 never
	// exchanges.
	SyncEvery int

	transport *exchanger
}

// Solo returns a runtime that shares this one's monitor, worker index and
// island but is detached from the portfolio's incumbent exchange. The
// multilevel V-cycle hands it to the coarsest-level solver so live progress
// keeps flowing while exchanges happen only at level boundaries (through
// Exchange), never at the solver's own step cadence — step-cadence
// exchanges would swap partitions of different hierarchy levels between
// workers. A nil receiver returns nil.
func (rt *Runtime) Solo() *Runtime {
	if rt == nil {
		return nil
	}
	return &Runtime{Monitor: rt.Monitor, Worker: rt.Worker, Island: rt.Island}
}

// Exchange performs one manual incumbent exchange outside any Loop: it
// deposits (energy, snapshot()) as this worker's current best, blocks until
// every active worker has reached its own exchange point for this round, and
// returns the round winner's assignment and energy if it strictly beats the
// deposited one and came from another worker (or another island). The
// multilevel V-cycle calls it at level boundaries — its natural phase
// transitions — where all workers hold partitions of the same graph, so the
// traded assignments are commensurate. Deterministic for runs whose workers
// reach the same boundaries in the same order (step-capped V-cycles do). On
// a nil runtime, a runtime without transport attachment, or after
// cancellation stopped the transport, it returns (nil, 0, false) without
// blocking.
func (rt *Runtime) Exchange(energy float64, snapshot func() []int32) ([]int32, float64, bool) {
	if rt == nil || rt.transport == nil {
		return nil, 0, false
	}
	win, ok := rt.transport.Sync(rt.Worker, Candidate{Assign: snapshot(), Energy: energy, Worker: rt.Worker, Has: true})
	if ok && !rt.ownCandidate(win) && win.Energy < energy {
		return win.Assign, win.Energy, true
	}
	return nil, 0, false
}

// ownCandidate reports whether c was deposited by this very worker.
func (rt *Runtime) ownCandidate(c Candidate) bool {
	return c.Island == rt.Island && c.Worker == rt.Worker
}

// PortfolioOptions configures a multi-worker portfolio run.
type PortfolioOptions struct {
	// Workers is the number of concurrent solver instances (<= 0 means
	// GOMAXPROCS). With Workers 1 the solve runs inline on the calling
	// goroutine and is bit-identical to a direct serial call.
	Workers int
	// Seed is the base seed; worker w solves with
	// DeriveSeed(Seed, Island*Workers+w), so every worker across a fleet
	// draws from a distinct stream even though all islands share Seed.
	Seed int64
	// SyncEvery is the incumbent-exchange cadence in loop steps (0 = the
	// workers never exchange at step indices; manual Runtime.Exchange
	// boundaries still work).
	SyncEvery int
	// Monitor optionally receives live progress from all workers.
	Monitor *Incumbent
	// Island is this process's island index in a federated run; it stamps
	// deposited candidates for the deterministic (energy, island, worker)
	// tie-break and offsets the worker seeds. 0 for single-process runs.
	Island int
	// Relay, when non-nil, federates the portfolio: each exchange round's
	// local winner is traded against the peer islands and the global winner
	// is what every worker receives. A relay forces the transport path even
	// for Workers 1 (a one-worker island still gossips).
	Relay Relay
}

// Portfolio runs one solver as opt.Workers concurrent, independently seeded
// instances that exchange incumbents through a barrier (federated across
// islands when a Relay is attached), and reduces the outcomes to a
// deterministic winner: the lowest energy, ties to the lowest worker index.
// Worker errors are tolerated while at least one worker produces a result;
// if all fail, the lowest-indexed worker's error (or the context's, once it
// fired) is returned.
func Portfolio[R any](ctx context.Context, opt PortfolioOptions,
	energy func(R) float64,
	solve func(ctx context.Context, rt *Runtime, seed int64) (R, error),
) (R, int, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opt.Monitor != nil {
		opt.Monitor.SetWorkers(workers)
		if opt.Relay != nil {
			opt.Monitor.SetIsland(opt.Island)
		}
	}
	offset := opt.Island * workers // the fleet-global index of local worker 0
	if workers == 1 && opt.Relay == nil {
		rt := &Runtime{Monitor: opt.Monitor, Worker: 0, Island: opt.Island, SyncEvery: opt.SyncEvery}
		res, err := solve(ctx, rt, DeriveSeed(opt.Seed, offset))
		return res, 1, err
	}

	exch := newExchanger(workers, opt.Island, opt.Relay, opt.Monitor)
	watchDone := make(chan struct{})
	go func() { // wake barrier waiters the moment the context fires
		select {
		case <-ctx.Done():
			exch.Stop()
		case <-watchDone:
		}
	}()

	results := make([]R, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := &Runtime{Monitor: opt.Monitor, Worker: w, Island: opt.Island, SyncEvery: opt.SyncEvery, transport: exch}
			defer exch.Leave(w)
			results[w], errs[w] = solve(ctx, rt, DeriveSeed(opt.Seed, offset+w))
		}(w)
	}
	wg.Wait()
	close(watchDone)

	bestW := -1
	var bestE float64
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			continue
		}
		if e := energy(results[w]); bestW < 0 || e < bestE {
			bestW, bestE = w, e
		}
	}
	if bestW < 0 {
		var zero R
		if err := ctx.Err(); err != nil {
			return zero, workers, err
		}
		for _, err := range errs {
			if err != nil {
				return zero, workers, err
			}
		}
		return zero, workers, errs[0] // unreachable: some err is non-nil
	}
	return results[bestW], workers, nil
}
