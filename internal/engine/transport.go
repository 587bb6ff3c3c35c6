package engine

import "sync"

// Candidate is one worker's deposited incumbent: a compact partition
// assignment, its objective value, and the (island, worker) coordinates that
// break ties deterministically. The zero value (Has false) is "no candidate
// yet" — a worker that reaches an exchange before any personal best still
// participates in the round.
type Candidate struct {
	// Assign is the partition as compact labels in [0, K).
	Assign []int32
	// Energy is the objective value of Assign (lower is better).
	Energy float64
	// Island identifies the process that produced the candidate in a
	// federated run; 0 for single-process portfolios.
	Island int
	// Worker is the producing worker's local index within its island.
	Worker int
	// Has marks a real deposit; false means the slot is empty.
	Has bool
}

// Less is the deterministic winner order: lowest energy first, ties to the
// lowest island, then the lowest worker index. Every reduction in the
// repository — the in-process barrier, the cross-island relay, and fleet
// clients reducing fanned-out results — uses this one comparison, which is
// what makes a step-capped federated run reproduce: any two sites holding
// the same candidate set pick the same winner.
func (c Candidate) Less(o Candidate) bool {
	if c.Energy != o.Energy {
		return c.Energy < o.Energy
	}
	if c.Island != o.Island {
		return c.Island < o.Island
	}
	return c.Worker < o.Worker
}

// ReduceWinner reduces candidates to the deterministic round winner under
// Candidate.Less, skipping empty slots. ok is false when no candidate Has.
func ReduceWinner(cands []Candidate) (Candidate, bool) {
	var win Candidate
	for _, c := range cands {
		if c.Has && (!win.Has || c.Less(win)) {
			win = c
		}
	}
	return win, win.Has
}

// Relay trades one island's local round winner against its peers and returns
// the global round winner (the deterministic reduction over all islands'
// candidates, including the local one). Implementations block until the
// round completes remotely — an HTTP long-poll in the server's island
// transport — and must unblock when their context is cancelled. ok is false
// when no island (local included) had a candidate; a non-nil error degrades
// the round to the local winner without aborting the run, so a slow or dead
// peer costs quality, never liveness.
type Relay interface {
	Exchange(round uint64, local Candidate) (Candidate, bool, error)
}

// exchanger is the barrier-synchronized incumbent exchange of a portfolio:
// each round, every active worker deposits its personal best, the last
// arriver reduces the round winner (Candidate.Less), and all workers leave
// the barrier with that same winner. Exchanging at step indices behind a
// barrier — rather than whenever wall-clock timing lets a worker peek — is
// what keeps a step-capped portfolio run deterministic.
//
// The contract:
//
//   - Sync deposits worker w's candidate (an empty Candidate re-uses the
//     worker's previous deposit — slots persist across rounds), blocks until
//     the round completes for every active member, and returns the round
//     winner. After Stop, Sync returns the last winner immediately.
//   - Leave withdraws a finished worker; a round in which every remaining
//     member is already waiting completes without the departed worker, so a
//     departure never deadlocks the rest.
//   - Stop aborts all current and future rounds (context cancelled); every
//     blocked Sync returns.
//
// With a relay attached, the exchanger federates: the last arriver reduces
// the local winner, releases the lock, trades it against the peer islands
// through the relay, and completes the round with the global winner, so
// every local worker leaves the barrier holding the fleet-wide best. Island
// round counters advance in lockstep because every island's run visits the
// same exchange cadence under a step cap.
type exchanger struct {
	mu      sync.Mutex
	cond    *sync.Cond
	members int // workers still participating
	waiting int
	round   uint64
	slots   []Candidate
	winner  Candidate
	stopped bool // context fired: every sync returns immediately

	island int
	relay  Relay
	mon    *Incumbent // exchange-round telemetry; may be nil
}

// newExchanger returns the barrier for a workers-wide portfolio. island
// stamps deposited candidates for the deterministic (energy, island, worker)
// tie-break; relay, when non-nil, trades each round's local winner against
// the peer islands; mon, when non-nil, receives one AddExchangeRound per
// completed round for live progress reporting.
func newExchanger(workers, island int, relay Relay, mon *Incumbent) *exchanger {
	x := &exchanger{members: workers, slots: make([]Candidate, workers), island: island, relay: relay, mon: mon}
	x.cond = sync.NewCond(&x.mu)
	return x
}

// Sync deposits worker w's best and blocks until the round completes (all
// active members arrived or the exchanger stopped), returning the round
// winner. Slots persist across rounds, so a worker that stopped early keeps
// contributing its final best.
func (x *exchanger) Sync(w int, own Candidate) (Candidate, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if own.Has {
		own.Island = x.island
		x.slots[w] = own
	}
	if x.stopped || (x.members <= 1 && x.relay == nil) {
		return x.winner, x.winner.Has
	}
	round := x.round
	x.waiting++
	if x.waiting == x.members {
		x.completeRoundLocked()
	} else {
		for x.round == round && !x.stopped {
			x.cond.Wait()
		}
	}
	return x.winner, x.winner.Has
}

// Leave withdraws a finished worker; if everyone else is already waiting,
// the round completes without it.
func (x *exchanger) Leave(int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.members--
	if x.members > 0 && x.waiting == x.members {
		x.completeRoundLocked()
	}
}

// Stop aborts all current and future rounds (context cancelled).
func (x *exchanger) Stop() {
	x.mu.Lock()
	x.stopped = true
	x.cond.Broadcast()
	x.mu.Unlock()
}

// completeRoundLocked reduces the round winner and wakes the waiters. With a
// relay attached, the reduction spans islands: the lock is released around
// the relay call — every member is parked in cond.Wait (or has left), so no
// slot can change underneath it — and a relay failure degrades the round to
// the local winner. Caller holds x.mu.
func (x *exchanger) completeRoundLocked() {
	win, _ := ReduceWinner(x.slots)
	if x.relay != nil && !x.stopped {
		round := x.round
		x.mu.Unlock()
		global, ok, err := x.relay.Exchange(round, win)
		x.mu.Lock()
		if err == nil && ok {
			win = global
		}
	}
	x.waiting = 0
	x.round++
	x.winner = win
	if x.mon != nil {
		x.mon.AddExchangeRound()
	}
	x.cond.Broadcast()
}
