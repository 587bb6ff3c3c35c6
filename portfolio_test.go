package fusionfission

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
)

// metaheuristicIDs are the methods that accept a portfolio width.
func metaheuristicIDs() []string {
	var ids []string
	for _, info := range MethodInfos() {
		if info.Metaheuristic {
			ids = append(ids, info.ID)
		}
	}
	return ids
}

// TestParallelismOneIsSerial: a one-worker portfolio must be bit-identical
// to the plain serial solver — worker 0 keeps the base seed and never sees
// a foreign incumbent, so the search trajectory is byte-for-byte the same.
// Combined with the golden test (which pins the serial output to the
// pre-engine solvers), this is the "Parallelism: 1 reproduces pre-refactor
// results seed-for-seed" guarantee.
func TestParallelismOneIsSerial(t *testing.T) {
	g := goldenGraph()
	for _, id := range metaheuristicIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			opt := goldenOptions(id)
			serial, err := Partition(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Parallelism = 1
			par, err := Partition(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Parts, par.Parts) {
				t.Fatal("Parallelism 1 diverged from the serial solver")
			}
			if par.Workers != 1 || serial.Workers != 1 {
				t.Fatalf("workers = %d / %d, want 1", serial.Workers, par.Workers)
			}
		})
	}
}

// TestPortfolioDeterministic: step-capped portfolio runs are exactly
// reproducible — same seed and same parallelism give the identical winning
// partition, because seeds derive from worker indices and incumbent
// exchange happens at fixed step indices behind a barrier.
func TestPortfolioDeterministic(t *testing.T) {
	g := goldenGraph()
	for _, id := range metaheuristicIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			opt := goldenOptions(id)
			opt.Parallelism = 3
			first, err := Partition(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if first.Workers != 3 {
				t.Fatalf("workers = %d, want 3", first.Workers)
			}
			if first.NumParts != goldenK {
				t.Fatalf("NumParts = %d", first.NumParts)
			}
			again, err := Partition(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first.Parts, again.Parts) {
				t.Fatal("same seed + same parallelism produced different winners")
			}
			if first.Mcut != again.Mcut {
				t.Fatalf("Mcut differs: %v vs %v", first.Mcut, again.Mcut)
			}
		})
	}
}

// Portfolio cancellation regression suite (the PR-2 per-method cancellation
// contract, re-run against the multi-worker path): every worker observes
// the cancellation promptly, the barrier never strands a worker, and no
// goroutine outlives the call.

func TestPortfolioCancelMidFlight(t *testing.T) {
	g := graph.Grid2D(48, 48)
	const delay = 60 * time.Millisecond
	const bound = 10 * time.Second // generous for -race CI

	baseline := runtime.NumGoroutine()
	for _, id := range metaheuristicIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(delay)
				cancel()
			}()
			start := time.Now()
			res, err := PartitionContext(ctx, g, Options{
				K: 16, Method: id, Seed: 1, Budget: 30 * time.Second,
				MaxSteps: 1 << 30, Parallelism: 4,
			})
			if elapsed := time.Since(start); elapsed > delay+bound {
				t.Fatalf("returned %v after cancellation", elapsed-delay)
			}
			switch {
			case err != nil:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("unexpected error: %v", err)
				}
			default:
				if !res.Cancelled {
					t.Error("portfolio result not marked Cancelled")
				}
				if res.NumParts != 16 {
					t.Errorf("partial result has %d parts, want 16", res.NumParts)
				}
				if len(res.Parts) != g.NumVertices() {
					t.Errorf("partial result has %d assignments", len(res.Parts))
				}
			}
		})
	}

	// Worker-goroutine leak check: the portfolio joins all workers and its
	// context watcher before returning, so the goroutine count settles back
	// to the pre-suite baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked: %d now, %d before the suite", n, baseline)
	}
}

func TestPortfolioAlreadyCancelled(t *testing.T) {
	g := graph.Grid2D(12, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range metaheuristicIDs() {
		res, err := PartitionContext(ctx, g, Options{K: 4, Method: id, Seed: 1, Parallelism: 4})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got res=%v err=%v", id, res, err)
		}
	}
}
