package engine

import (
	"context"
	"errors"
	"fmt"
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
	// SyncEvery is the incumbent-exchange cadence in loop steps; 0 makes
	// the workers independent restarts that never exchange.
	SyncEvery int
	// Monitor optionally receives live progress from all workers.
	Monitor *Incumbent
	// Island is this process's island index in a federated run; it stamps
	// deposited candidates for the deterministic (energy, island, worker)
	// tie-break and offsets the worker seeds. 0 for single-process runs.
	Island int
	// Relay, when non-nil, federates the portfolio: each exchange round's
	// local winner is traded against the peer islands and the global winner
	// is what every worker receives. With a non-zero SyncEvery a relay forces
	// the transport path even for Workers 1 (a one-worker island still
	// gossips); with SyncEvery 0 it is never called.
	Relay Relay
}

// Portfolio runs one solver as opt.Workers concurrent, independently seeded
// instances — exchanging incumbents through a barrier when opt.SyncEvery is
// non-zero (federated across islands when a Relay is attached) — and
// reduces the outcomes to a deterministic winner: the lowest energy, ties to
// the lowest worker index. A worker that returns an error or panics loses
// only its own result, which is tolerated while at least one worker produces
// one; if all fail, the lowest-indexed worker's error (or the context's,
// once it fired) is returned.
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
	exchanging := opt.SyncEvery > 0 && (workers > 1 || opt.Relay != nil)
	if workers == 1 && !exchanging {
		rt := &Runtime{Monitor: opt.Monitor, Worker: 0, Island: opt.Island}
		res, err := contained(ctx, solve, rt, DeriveSeed(opt.Seed, offset))
		return res, 1, err
	}

	var exch *exchanger
	if exchanging {
		exch = newExchanger(workers, opt.Island, opt.Relay, opt.Monitor)
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() { // wake barrier waiters the moment the context fires
			select {
			case <-ctx.Done():
				exch.Stop()
			case <-watchDone:
			}
		}()
	}

	results := make([]R, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := &Runtime{Monitor: opt.Monitor, Worker: w, Island: opt.Island}
			if exch != nil {
				rt.SyncEvery, rt.transport = opt.SyncEvery, exch
				defer exch.Leave(w)
			}
			results[w], errs[w] = contained(ctx, solve, rt, DeriveSeed(opt.Seed, offset+w))
		}(w)
	}
	wg.Wait()

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

// ErrPanicked marks the error of a worker whose solve panicked; errors.Is
// finds it through any wrapping.
var ErrPanicked = errors.New("panicked")

// contained runs one worker's solve and turns a panic into that worker's
// error, so a faulty search costs its own result, never the process.
func contained[R any](ctx context.Context,
	solve func(ctx context.Context, rt *Runtime, seed int64) (R, error),
	rt *Runtime, seed int64,
) (res R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: worker %d %w: %v", rt.Worker, ErrPanicked, r)
		}
	}()
	return solve(ctx, rt, seed)
}
