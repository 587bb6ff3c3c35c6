package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"

	ff "repro"
	"repro/internal/engine"
	"repro/internal/graph"
)

// jobStatus is the lifecycle of a submitted partition job.
type jobStatus string

const (
	statusQueued    jobStatus = "queued"
	statusRunning   jobStatus = "running"
	statusDone      jobStatus = "done"
	statusFailed    jobStatus = "failed"
	statusCancelled jobStatus = "cancelled"
)

// errQueueFull maps to HTTP 503.
var errQueueFull = errors.New("server: job queue full, retry later")

// job is one partition computation moving through the pool. Identical
// concurrent requests (same cache key and same timeout) coalesce onto a
// single job: the computation runs once and every waiter reads the shared
// outcome. The timeout is part of the coalescing identity — not the cache
// key — because a job's deadline can truncate a metaheuristic to a partial
// result, which must not be handed to a waiter that asked for longer.
type job struct {
	id    string
	key   string // cache key; "" for no_cache jobs, which never coalesce
	coKey string // coalescing key: cache key + timeout; "" never coalesces

	g   *graph.Graph
	opt ff.Options
	mon *ff.Monitor // live progress, snapshotted by GET /v1/jobs/{id}

	// hub and fedKey bind a federated job to the island hub: finish()
	// notifies the hub so peers polling later rounds get the final
	// candidate instead of hanging. Both zero for local jobs.
	hub    *islandHub
	fedKey string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed exactly once, when the job finishes

	mu         sync.Mutex
	status     jobStatus
	result     *ff.Result
	err        error
	coalesced  int // extra requests served by this one computation
	createdAt  time.Time
	finishedAt time.Time
}

// snapshot reads the job state consistently.
func (j *job) snapshot() (jobStatus, *ff.Result, error, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.result, j.err, j.coalesced
}

// poolStats is the counters snapshot reported by /healthz.
type poolStats struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	Queued     int   `json:"queued"`
	Submitted  int64 `json:"submitted"`
	Coalesced  int64 `json:"coalesced"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Cancelled  int64 `json:"cancelled"`
	// Panicked counts the failed jobs whose solve panicked; each answered
	// 500 and released its worker slot.
	Panicked int64 `json:"panicked"`
}

// pool runs jobs on a fixed set of workers over a bounded queue.
type pool struct {
	// partition computes one job (ff.PartitionMonitored; tests substitute
	// a faulty solver).
	partition func(ctx context.Context, g *graph.Graph, opt ff.Options, mon *ff.Monitor) (*ff.Result, error)
	queue     chan *job
	cache     *resultCache
	workers   int
	jobTTL    time.Duration
	wg        sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	seq      int64
	jobs     map[string]*job // by id, finished jobs retained for jobTTL
	inflight map[string]*job // by coalescing key, queued or running only
	lastGC   time.Time
	stats    poolStats
}

func newPool(workers, depth int, cache *resultCache, jobTTL time.Duration) *pool {
	p := &pool{
		partition: ff.PartitionMonitored,
		queue:     make(chan *job, depth),
		cache:     cache,
		workers:   workers,
		jobTTL:    jobTTL,
		jobs:      make(map[string]*job),
		inflight:  make(map[string]*job),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// submit enqueues a computation, or attaches to an in-flight job with the
// same cache key. timeout bounds the job end to end: queue wait plus run.
// fed, when non-nil, binds the job to the island hub: the run exchanges
// incumbents through the fleet and the hub learns when the job finishes.
func (p *pool) submit(g *graph.Graph, opt ff.Options, key string, timeout time.Duration, fed *federation) (*job, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("server: shutting down")
	}
	p.gcLocked()
	coKey := ""
	if key != "" {
		coKey = fmt.Sprintf("%s|%d", key, timeout)
		if j, ok := p.inflight[coKey]; ok {
			j.mu.Lock()
			j.coalesced++
			j.mu.Unlock()
			p.stats.Coalesced++
			return j, nil
		}
	}
	p.seq++
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	if fed != nil {
		opt.Exchange = fed.hub.open(ctx, fed.key, fed.hash, opt.K)
	}
	j := &job{
		id:        fmt.Sprintf("job-%06d", p.seq),
		key:       key,
		coKey:     coKey,
		g:         g,
		opt:       opt,
		mon:       ff.NewMonitor(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		status:    statusQueued,
		createdAt: time.Now(),
	}
	if fed != nil {
		j.hub = fed.hub
		j.fedKey = fed.key
	}
	select {
	case p.queue <- j:
	default:
		cancel()
		return nil, errQueueFull
	}
	p.jobs[j.id] = j
	if coKey != "" {
		p.inflight[coKey] = j
	}
	p.stats.Submitted++
	return j, nil
}

// get looks up a job by id.
func (p *pool) get(id string) (*job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// cancelJob cancels a queued or running job. Cancellation is idempotent:
// cancelled is true whenever the job ends up in the cancelled state, no
// matter which goroutine got there first; a job that already finished done
// or failed returns (false, true).
func (p *pool) cancelJob(id string) (cancelled, found bool) {
	j, ok := p.get(id)
	if !ok {
		return false, false
	}
	j.cancel()
	if p.finish(j, statusCancelled, nil, context.Canceled) {
		return true, true
	}
	status, _, _, _ := j.snapshot()
	return status == statusCancelled, true
}

// finish records a job's outcome, takes the job out of the coalescing
// index and counts it, and only then wakes its waiters: a client that
// repeats the request as soon as it has the reply starts a fresh job
// instead of reading this one's outcome, and /healthz already counts it.
// Only the first call takes effect.
func (p *pool) finish(j *job, status jobStatus, res *ff.Result, err error) bool {
	j.mu.Lock()
	if j.status == statusDone || j.status == statusFailed || j.status == statusCancelled {
		j.mu.Unlock()
		return false
	}
	j.status = status
	j.result = res
	j.err = err
	j.finishedAt = time.Now()
	j.mu.Unlock()

	p.mu.Lock()
	if j.coKey != "" && p.inflight[j.coKey] == j {
		delete(p.inflight, j.coKey)
	}
	switch status {
	case statusDone:
		p.stats.Completed++
	case statusCancelled:
		p.stats.Cancelled++
	default:
		p.stats.Failed++
		if errors.Is(err, engine.ErrPanicked) {
			p.stats.Panicked++
		}
	}
	p.mu.Unlock()

	close(j.done)
	if j.hub != nil {
		j.hub.finish(j.fedKey)
	}
	return true
}

func (p *pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.run(j)
	}
}

func (p *pool) run(j *job) {
	j.mu.Lock()
	if j.status != statusQueued {
		j.mu.Unlock() // already cancelled while queued
		return
	}
	if err := j.ctx.Err(); err != nil {
		j.mu.Unlock()
		p.finish(j, statusFailed, nil, fmt.Errorf("server: job expired in queue: %w", err))
		return
	}
	j.status = statusRunning
	j.mu.Unlock()

	// Cancellation is cooperative all the way down: PartitionContext runs
	// the solver on this goroutine and the solver itself observes j.ctx, so
	// a DELETE or an expired deadline returns control (and this worker
	// slot) promptly — nothing keeps computing in the background.
	res, err := p.solve(j)
	j.cancel()
	if err != nil {
		// An explicit DELETE surfaces as context.Canceled; whichever of
		// this goroutine and cancelJob finishes the job first, the
		// recorded outcome is "cancelled", not "failed".
		status := statusFailed
		if errors.Is(err, context.Canceled) {
			status = statusCancelled
		}
		p.finish(j, status, nil, err)
		return
	}
	// A metaheuristic interrupted by the deadline returns its best
	// partition so far; serve it to the waiters but never cache it — a
	// repeat of the request deserves the full budget. The entry goes in
	// before finish wakes the waiters, so a client that repeats the request
	// as soon as it has the reply finds it.
	if j.key != "" && !res.Cancelled {
		p.cache.add(j.key, res)
	}
	p.finish(j, statusDone, res, nil)
}

// solve runs the job's computation and turns a panic anywhere in it into
// the job's error, so a faulty job costs only itself — never the process
// and the jobs queued behind it.
func (p *pool) solve(j *job) (res *ff.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("server: job %s panicked: %v\n%s", j.id, r, debug.Stack())
			res, err = nil, fmt.Errorf("server: job %s %w: %v", j.id, engine.ErrPanicked, r)
		}
	}()
	return p.partition(j.ctx, j.g, j.opt, j.mon)
}

// gcLocked drops finished jobs older than jobTTL. The full-map sweep is
// amortized: at most once per gc interval, so submission stays O(1) under
// sustained traffic. Caller holds p.mu.
func (p *pool) gcLocked() {
	if p.jobTTL <= 0 {
		return
	}
	interval := 30 * time.Second
	if p.jobTTL < interval {
		interval = p.jobTTL
	}
	now := time.Now()
	if now.Sub(p.lastGC) < interval {
		return
	}
	p.lastGC = now
	cutoff := now.Add(-p.jobTTL)
	for id, j := range p.jobs {
		j.mu.Lock()
		expired := !j.finishedAt.IsZero() && j.finishedAt.Before(cutoff)
		j.mu.Unlock()
		if expired {
			delete(p.jobs, id)
		}
	}
}

func (p *pool) snapshot() poolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Workers = p.workers
	s.QueueDepth = cap(p.queue)
	s.Queued = len(p.queue)
	return s
}

// close drains the pool: no new submissions, workers finish queued jobs.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.queue)
	p.wg.Wait()
}
