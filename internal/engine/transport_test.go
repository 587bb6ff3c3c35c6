package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestDeriveSeedWorkerOffset pins the federated seed schedule: worker w of
// island i in a width-wide fleet solves with DeriveSeed(base, i*width+w),
// worker 0 of island 0 keeps the base seed (serial bit-identity), and no two
// workers anywhere in a fleet share a stream.
func TestDeriveSeedWorkerOffset(t *testing.T) {
	const base, width = 42, 4

	if got := DeriveSeed(base, 0); got != base {
		t.Fatalf("DeriveSeed(base, 0) = %d, want the base seed %d", got, base)
	}

	// An island-1 portfolio must hand worker w the seed of global index
	// width+w, not local index w.
	seeds := make([]int64, width)
	_, _, err := Portfolio(context.Background(),
		PortfolioOptions{Workers: width, Seed: base, Island: 1},
		func(int) float64 { return 0 },
		func(ctx context.Context, rt *Runtime, seed int64) (int, error) {
			seeds[rt.Worker] = seed
			if rt.Island != 1 {
				return 0, errors.New("runtime lost its island index")
			}
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < width; w++ {
		if want := DeriveSeed(base, width+w); seeds[w] != want {
			t.Fatalf("island 1 worker %d got seed %d, want DeriveSeed(base, %d) = %d",
				w, seeds[w], width+w, want)
		}
	}

	// The regression this guards: before the offset, island i worker w used
	// DeriveSeed(base, w), so every island ran identical streams. Across a
	// 3-island fleet of width 4, all 12 derived seeds must be distinct.
	seen := map[int64]string{}
	for island := 0; island < 3; island++ {
		for w := 0; w < width; w++ {
			s := DeriveSeed(base, island*width+w)
			if prev, dup := seen[s]; dup {
				t.Fatalf("island %d worker %d collides with %s on seed %d", island, w, prev, s)
			}
			seen[s] = fmt.Sprintf("island %d worker %d", island, w)
		}
	}
}

// recordingRelay is a scriptable Relay for transport tests: it records every
// (round, local winner) it is handed and answers from a queue of outcomes.
type recordingRelay struct {
	mu     sync.Mutex
	rounds []uint64
	locals []Candidate
	global Candidate // returned when err is nil
	err    error
}

func (r *recordingRelay) Exchange(round uint64, local Candidate) (Candidate, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds = append(r.rounds, round)
	r.locals = append(r.locals, local)
	if r.err != nil {
		return Candidate{}, false, r.err
	}
	return r.global, r.global.Has, nil
}

// TestIslandTransportRelay drives the federated barrier with a scripted
// relay: the relay must receive each round's local winner, its global winner
// must be what every worker leaves the barrier with, and a relay failure
// must degrade the round to the local winner instead of wedging or aborting.
func TestIslandTransportRelay(t *testing.T) {
	relay := &recordingRelay{
		global: Candidate{Assign: []int32{9}, Energy: 1, Island: 0, Worker: 2, Has: true},
	}
	mon := NewIncumbent()
	tr := newExchanger(2, 1, relay, mon)

	sync2 := func(e0, e1 float64) [2]Candidate {
		var got [2]Candidate
		var wg sync.WaitGroup
		for w, e := range []float64{e0, e1} {
			wg.Add(1)
			go func(w int, e float64) {
				defer wg.Done()
				win, ok := tr.Sync(w, Candidate{Assign: []int32{int32(w)}, Energy: e, Worker: w, Has: true})
				if !ok {
					t.Errorf("worker %d: round returned no winner", w)
				}
				got[w] = win
			}(w, e)
		}
		wg.Wait()
		return got
	}

	// Round 0: local winner is worker 1 (energy 3); the relay's global
	// winner (island 0, energy 1) must reach both workers.
	got := sync2(5, 3)
	for w, win := range got {
		if win.Energy != 1 || win.Island != 0 {
			t.Fatalf("worker %d left round 0 with %+v, want the relay's global winner", w, win)
		}
	}
	relay.mu.Lock()
	if len(relay.rounds) != 1 || relay.rounds[0] != 0 {
		t.Fatalf("relay saw rounds %v, want [0]", relay.rounds)
	}
	local := relay.locals[0]
	relay.mu.Unlock()
	if local.Energy != 3 || local.Island != 1 || local.Worker != 1 {
		t.Fatalf("relay was handed %+v, want worker 1's energy-3 candidate stamped island 1", local)
	}

	// Round 1: the relay fails; the round must degrade to the local winner
	// (worker 1 again, now energy 2) without blocking either worker.
	relay.mu.Lock()
	relay.err = errors.New("peer unreachable")
	relay.mu.Unlock()
	got = sync2(5, 2)
	for w, win := range got {
		if win.Energy != 2 || win.Island != 1 || win.Worker != 1 {
			t.Fatalf("worker %d left the degraded round with %+v, want the local winner", w, win)
		}
	}
	if n := mon.ExchangeRounds(); n != 2 {
		t.Fatalf("monitor counted %d exchange rounds, want 2", n)
	}
}

// TestOneWorkerIslandStillGossips: a width-1 portfolio with a relay must
// round through the barrier (the island still deposits and receives global
// winners) instead of taking the serial fast path.
func TestOneWorkerIslandStillGossips(t *testing.T) {
	relay := &recordingRelay{
		global: Candidate{Assign: []int32{7}, Energy: 0.5, Island: 0, Has: true},
	}
	tr := newExchanger(1, 2, relay, nil)
	win, ok := tr.Sync(0, Candidate{Assign: []int32{0}, Energy: 4, Worker: 0, Has: true})
	if !ok || win.Energy != 0.5 || win.Island != 0 {
		t.Fatalf("one-worker island got %+v ok=%v, want the relay's global winner", win, ok)
	}
	relay.mu.Lock()
	defer relay.mu.Unlock()
	if len(relay.locals) != 1 || relay.locals[0].Island != 2 {
		t.Fatalf("relay saw %+v, want one island-2 deposit", relay.locals)
	}
}

// slowFlakyRelay sleeps and fails pseudo-randomly, stressing the
// lock-release window completeRoundLocked opens around the relay call.
type slowFlakyRelay struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (r *slowFlakyRelay) Exchange(round uint64, local Candidate) (Candidate, bool, error) {
	r.mu.Lock()
	sleep := time.Duration(r.rng.Intn(200)) * time.Microsecond
	fail := r.rng.Intn(3) == 0
	r.mu.Unlock()
	time.Sleep(sleep)
	if fail {
		return Candidate{}, false, errors.New("flaky")
	}
	return local, local.Has, nil
}

// TestExchangerLeaveStopRandomized hammers the barrier's departure and
// cancellation edges: workers run different numbers of rounds (so departures
// happen while peers are parked mid-round), a stopper may fire at a random
// instant, and half the runs add a slow, flaky relay. The invariant under
// -race: every Sync returns — a departing worker or a cancellation never
// deadlocks the remaining members.
func TestExchangerLeaveStopRandomized(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		rng := rand.New(rand.NewSource(int64(1000 + iter)))
		workers := 2 + rng.Intn(5)
		withStop := iter%2 == 0
		var relay Relay
		if iter%4 < 2 {
			relay = &slowFlakyRelay{rng: rand.New(rand.NewSource(int64(iter)))}
		}
		tr := newExchanger(workers, 1, relay, nil)

		rounds := make([]int, workers)
		for w := range rounds {
			rounds[w] = 1 + rng.Intn(8)
		}
		stopAfter := time.Duration(rng.Intn(2000)) * time.Microsecond

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer tr.Leave(w)
				for r := 0; r < rounds[w]; r++ {
					tr.Sync(w, Candidate{Assign: []int32{int32(w)}, Energy: float64(w + r), Worker: w, Has: true})
				}
			}(w)
		}
		if withStop {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(stopAfter)
				tr.Stop()
			}()
		}

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("iter %d (workers=%d stop=%v relay=%v rounds=%v): barrier deadlocked",
				iter, workers, withStop, relay != nil, rounds)
		}
	}
}
