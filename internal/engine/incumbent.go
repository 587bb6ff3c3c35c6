package engine

import (
	"sync"
	"sync/atomic"
)

// Incumbent is the thread-safe best-so-far of a running (possibly
// multi-worker) solve, with copy-out. It doubles as the live-progress feed:
// workers add step counts and offer improvements as they search, and the
// HTTP layer snapshots Progress while the job runs.
type Incumbent struct {
	steps   atomic.Int64
	workers atomic.Int32
	rounds  atomic.Int64
	// island is the 1-biased island index of a federated run (0 = not
	// federated), so island 0 remains representable.
	island atomic.Int64

	mu     sync.Mutex
	has    bool
	energy float64
	assign []int32
}

// NewIncumbent returns an empty incumbent.
func NewIncumbent() *Incumbent { return &Incumbent{} }

// Offer records a new solution if it beats the current best. snapshot is
// invoked — under the lock, so at most once — only when the offer wins; it
// must return compact part labels the incumbent may retain. A nil snapshot
// records the energy alone.
func (inc *Incumbent) Offer(energy float64, snapshot func() []int32) bool {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.has && energy >= inc.energy {
		return false
	}
	inc.has = true
	inc.energy = energy
	if snapshot != nil {
		inc.assign = snapshot()
	}
	return true
}

// Best copies out the best assignment and its energy. ok is false while no
// solution has been offered; assign is nil if the best was offered without
// a snapshot.
func (inc *Incumbent) Best() (assign []int32, energy float64, ok bool) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if !inc.has {
		return nil, 0, false
	}
	if inc.assign != nil {
		assign = append([]int32(nil), inc.assign...)
	}
	return assign, inc.energy, true
}

// AddSteps adds a worker's freshly executed step count.
func (inc *Incumbent) AddSteps(n int64) { inc.steps.Add(n) }

// SetWorkers records how many portfolio workers feed this incumbent.
func (inc *Incumbent) SetWorkers(n int) { inc.workers.Store(int32(n)) }

// AddExchangeRound counts one completed incumbent-exchange round; the
// transport calls it so live monitoring can show gossip activity.
func (inc *Incumbent) AddExchangeRound() { inc.rounds.Add(1) }

// ExchangeRounds returns the number of exchange rounds completed so far.
func (inc *Incumbent) ExchangeRounds() int64 { return inc.rounds.Load() }

// SetIsland records that the solve is federated and which island this
// process is; Progress then reports the island id.
func (inc *Incumbent) SetIsland(island int) { inc.island.Store(int64(island) + 1) }

// Progress is a live snapshot of a running solve, served by the HTTP API on
// GET /v1/jobs/{id} while the job runs.
type Progress struct {
	// Steps is the total number of search steps executed so far, summed
	// across workers (each solver's own step unit: events, moves,
	// iterations, generations).
	Steps int64 `json:"steps"`
	// BestObjective is the best objective value found so far; absent until
	// a first solution exists.
	BestObjective *float64 `json:"best_objective,omitempty"`
	// Workers is the portfolio width of the solve.
	Workers int `json:"workers"`
	// ExchangeRounds counts completed incumbent-exchange rounds — step-
	// cadence barriers, federated across islands or not — so a poller can
	// watch exchange activity. It stays 0 for portfolios that never
	// exchange.
	ExchangeRounds int64 `json:"exchange_rounds"`
	// Island is this process's island index when the solve is federated
	// across ffserve instances; absent for single-process runs.
	Island *int `json:"island,omitempty"`
}

// Progress snapshots the live counters.
func (inc *Incumbent) Progress() Progress {
	p := Progress{
		Steps:          inc.steps.Load(),
		Workers:        int(inc.workers.Load()),
		ExchangeRounds: inc.rounds.Load(),
	}
	if biased := inc.island.Load(); biased > 0 {
		island := int(biased - 1)
		p.Island = &island
	}
	inc.mu.Lock()
	if inc.has {
		e := inc.energy
		p.BestObjective = &e
	}
	inc.mu.Unlock()
	return p
}
