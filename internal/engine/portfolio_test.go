package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// toyResult is a synthetic solver outcome for portfolio tests.
type toyResult struct {
	seed    int64
	worker  int
	energy  float64
	foreign [][]int32 // every foreign incumbent this worker adopted
}

func toyEnergy(r *toyResult) float64 { return r.energy }

func TestPortfolioSingleWorkerRunsInline(t *testing.T) {
	var gid, solveGid int64
	gid = goid(t)
	res, workers, err := Portfolio(context.Background(), PortfolioOptions{Workers: 1, Seed: 9},
		toyEnergy,
		func(ctx context.Context, rt *Runtime, seed int64) (*toyResult, error) {
			solveGid = goid(t)
			if rt.Worker != 0 {
				t.Errorf("worker = %d", rt.Worker)
			}
			return &toyResult{seed: seed, energy: 1}, nil
		})
	if err != nil || workers != 1 {
		t.Fatalf("err=%v workers=%d", err, workers)
	}
	if res.seed != 9 {
		t.Fatalf("worker 0 seed = %d, want the base seed", res.seed)
	}
	if gid != solveGid {
		t.Fatal("single-worker solve did not run on the calling goroutine")
	}
}

// goid fingerprints the current goroutine via a stack-allocated marker: the
// test only needs "same goroutine or not", so the address of a local works.
func goid(t *testing.T) int64 {
	t.Helper()
	buf := make([]byte, 64)
	runtime.Stack(buf, false)
	var id int64
	fmt.Sscanf(string(buf), "goroutine %d ", &id)
	return id
}

func TestPortfolioDeterministicReduction(t *testing.T) {
	run := func() (*toyResult, int) {
		res, workers, err := Portfolio(context.Background(), PortfolioOptions{Workers: 4, Seed: 5},
			toyEnergy,
			func(ctx context.Context, rt *Runtime, seed int64) (*toyResult, error) {
				// Derived seeds decide the energy; two workers tie so the
				// reduction must break the tie by worker index.
				e := float64(seed % 97)
				if rt.Worker >= 2 {
					e = -1 // tie between workers 2 and 3
				}
				return &toyResult{seed: seed, worker: rt.Worker, energy: e}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res, workers
	}
	first, workers := run()
	if workers != 4 {
		t.Fatalf("workers = %d", workers)
	}
	if first.worker != 2 {
		t.Fatalf("tie broken to worker %d, want 2", first.worker)
	}
	for i := 0; i < 3; i++ {
		if again, _ := run(); again.worker != first.worker || again.seed != first.seed {
			t.Fatalf("run %d chose worker %d/seed %d, first chose %d/%d",
				i, again.worker, again.seed, first.worker, first.seed)
		}
	}
}

func TestPortfolioWorkerErrorsTolerated(t *testing.T) {
	boom := errors.New("boom")
	res, _, err := Portfolio(context.Background(), PortfolioOptions{Workers: 3, Seed: 1},
		toyEnergy,
		func(ctx context.Context, rt *Runtime, seed int64) (*toyResult, error) {
			if rt.Worker != 1 {
				return nil, boom
			}
			return &toyResult{worker: rt.Worker, energy: 4}, nil
		})
	if err != nil {
		t.Fatalf("portfolio failed despite a surviving worker: %v", err)
	}
	if res.worker != 1 {
		t.Fatalf("winner = worker %d", res.worker)
	}

	_, _, err = Portfolio(context.Background(), PortfolioOptions{Workers: 3, Seed: 1},
		toyEnergy,
		func(ctx context.Context, rt *Runtime, seed int64) (*toyResult, error) {
			return nil, fmt.Errorf("worker %d: %w", rt.Worker, boom)
		})
	if !errors.Is(err, boom) {
		t.Fatalf("all-fail error = %v", err)
	}
}

func TestPortfolioExchangeDeliversBestIncumbent(t *testing.T) {
	// Worker w publishes energy 10-w at its first step; every round the
	// barrier reduces to worker 3's incumbent, which all other workers must
	// observe through Foreign. Step-indexed syncs make this fully
	// deterministic, so the assertions are exact.
	const workers = 4
	res, _, err := Portfolio(context.Background(), PortfolioOptions{Workers: workers, Seed: 1, SyncEvery: 2},
		toyEnergy,
		func(ctx context.Context, rt *Runtime, seed int64) (*toyResult, error) {
			r := &toyResult{worker: rt.Worker, energy: float64(10 - rt.Worker)}
			loop := NewLoop(ctx, LoopOptions{MaxSteps: 6, PollEvery: 1, Runtime: rt})
			own := []int32{int32(rt.Worker)}
			loop.Improved(r.energy, func() []int32 { return own })
			for loop.Next() {
				if assign, e, ok := loop.Foreign(); ok {
					if e >= r.energy {
						return nil, fmt.Errorf("worker %d: foreign %g not better than own %g", rt.Worker, e, r.energy)
					}
					r.foreign = append(r.foreign, assign)
				}
			}
			return r, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.worker != 3 {
		t.Fatalf("winner = worker %d, want 3", res.worker)
	}
	// The winning worker never sees a foreign incumbent; the others see
	// worker 3's assignment at their first sync (step 2) and, having not
	// improved since, nothing new after.
	if len(res.foreign) != 0 {
		t.Fatalf("winner adopted %d foreign incumbents", len(res.foreign))
	}
}

func TestPortfolioCancellationUnblocksBarrier(t *testing.T) {
	// Workers 1..3 sync every step; worker 0 never syncs (it busy-loops on
	// a huge PollEvery-1 loop), so rounds can only complete when the
	// context fires and the exchanger aborts. The whole portfolio must
	// return promptly with the context error.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	var started atomic.Int32
	_, _, err := Portfolio(ctx, PortfolioOptions{Workers: 4, Seed: 1, SyncEvery: 1},
		toyEnergy,
		func(ctx context.Context, rt *Runtime, seed int64) (*toyResult, error) {
			started.Add(1)
			sync := rt.SyncEvery
			if rt.Worker == 0 {
				sync = 0 // never participates in a round
			}
			loop := NewLoop(ctx, LoopOptions{PollEvery: 1, Runtime: &Runtime{
				Monitor: rt.Monitor, Worker: rt.Worker, SyncEvery: sync, transport: rt.transport,
			}})
			loop.Improved(float64(rt.Worker), func() []int32 { return []int32{0} })
			for loop.Next() {
			}
			return nil, ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("portfolio took %v to unwind after cancellation", elapsed)
	}
	if started.Load() != 4 {
		t.Fatalf("only %d workers started", started.Load())
	}
}

func TestPortfolioMonitorAggregation(t *testing.T) {
	mon := NewIncumbent()
	_, workers, err := Portfolio(context.Background(), PortfolioOptions{Workers: 3, Seed: 2, Monitor: mon},
		toyEnergy,
		func(ctx context.Context, rt *Runtime, seed int64) (*toyResult, error) {
			loop := NewLoop(ctx, LoopOptions{MaxSteps: 1000, PollEvery: 1, Runtime: rt})
			loop.Improved(float64(rt.Worker+1), func() []int32 { return []int32{int32(rt.Worker)} })
			for loop.Next() {
			}
			return &toyResult{energy: float64(rt.Worker + 1)}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	p := mon.Progress()
	if p.Workers != workers || p.Workers != 3 {
		t.Fatalf("progress workers = %d", p.Workers)
	}
	if p.Steps != 3000 {
		t.Fatalf("progress steps = %d, want 3000", p.Steps)
	}
	if p.BestObjective == nil || *p.BestObjective != 1 {
		t.Fatalf("progress best = %v, want 1", p.BestObjective)
	}
}

// TestPortfolioContainsWorkerPanic: a panicking worker becomes that
// worker's error. Alone (width 1, run inline) the portfolio returns it; at
// width 3 the barrier still releases the other workers, which keep
// exchanging, and the best of them wins.
func TestPortfolioContainsWorkerPanic(t *testing.T) {
	_, _, err := Portfolio(context.Background(), PortfolioOptions{Workers: 1, Seed: 1},
		toyEnergy,
		func(ctx context.Context, rt *Runtime, seed int64) (*toyResult, error) {
			panic("boom")
		})
	if err == nil || !strings.Contains(err.Error(), "worker 0 panicked: boom") {
		t.Fatalf("width 1: err = %v", err)
	}

	res, _, err := Portfolio(context.Background(), PortfolioOptions{Workers: 3, Seed: 1, SyncEvery: 1},
		toyEnergy,
		func(ctx context.Context, rt *Runtime, seed int64) (*toyResult, error) {
			loop := NewLoop(ctx, LoopOptions{MaxSteps: 8, PollEvery: 1, Runtime: rt})
			loop.Improved(float64(10-rt.Worker), func() []int32 { return []int32{int32(rt.Worker)} })
			for loop.Next() {
				if rt.Worker == 2 && loop.Steps() == 3 {
					panic("boom")
				}
			}
			return &toyResult{worker: rt.Worker, energy: float64(10 - rt.Worker)}, nil
		})
	if err != nil {
		t.Fatalf("width 3: portfolio failed despite surviving workers: %v", err)
	}
	if res.worker != 1 {
		t.Fatalf("width 3: winner = worker %d, want 1", res.worker)
	}
}
