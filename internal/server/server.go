// Package server turns the fusionfission library into a partition-as-a-
// service HTTP API:
//
//	POST   /v1/partition           submit a graph + options, get a partition
//	GET    /v1/jobs/{id}           poll an asynchronous job
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	PUT    /v1/graphs              upload a graph, get its content id
//	GET    /v1/graphs              graph-store occupancy statistics
//	GET    /v1/graphs/{id}         stored-graph metadata
//	DELETE /v1/graphs/{id}         drop a stored graph
//	POST   /v1/graphs/{id}/mutate  derive a new graph by edge edits
//	GET    /v1/methods             list available methods and objectives
//	GET    /healthz                liveness + pool/cache/store statistics
//
// Requests run on a bounded worker pool with a per-job deadline covering
// queue wait plus execution. Identical concurrent requests (same cache key
// and same timeout — a shorter deadline could truncate the shared run) are
// coalesced onto a single computation, and finished results are served from an LRU cache
// keyed by (graph content hash, method, K, objective, seed, work caps) —
// with deterministic seeds, a repeat query never recomputes.
package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	ff "repro"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/wire"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of concurrent partition computations
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64); beyond it
	// submissions fail with 503.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries (default 256;
	// negative disables caching).
	CacheSize int
	// MaxBudget clamps the per-request metaheuristic budget (default 30s).
	MaxBudget time.Duration
	// MaxParallelism clamps the per-request portfolio width (default
	// GOMAXPROCS; negative disables portfolios entirely, forcing serial
	// runs). Each portfolio worker occupies a CPU core, so the product of
	// Workers and MaxParallelism is how oversubscribed the host can get.
	MaxParallelism int
	// Grace is added to a request's budget to form the default per-job
	// deadline, covering queue wait and fixed method overhead
	// (default 10s).
	Grace time.Duration
	// JobTTL is how long finished jobs stay pollable (default 15m).
	JobTTL time.Duration
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64

	// IslandID identifies this instance inside a federated fleet; it is the
	// deterministic reduction tie-break after the objective, so every fleet
	// member needs a distinct id. Meaningful only with Peers.
	IslandID int
	// Peers lists the base URLs (scheme://host:port) of the other islands in
	// the fleet. Non-empty Peers enables POST /v1/islands/exchange and lets
	// requests opt into federation with "federate": true.
	Peers []string
	// ExchangeWait caps the long-poll for a peer's candidate in one exchange
	// round (default 30s). A peer that cannot answer within the window is
	// skipped for that round; the run continues with the remaining
	// candidates.
	ExchangeWait time.Duration

	// StoreDir is the graph store's spill directory. When set, uploaded
	// graphs persist as binary CSR files and survive restarts and memory
	// eviction; when empty the store is memory-only and eviction is
	// permanent (evicted ids answer 404).
	StoreDir string
	// StoreMaxBytes bounds the graph store's in-memory tier by encoded
	// graph size (default store.DefaultMaxBytes).
	StoreMaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 30 * time.Second
	}
	if c.MaxParallelism == 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxParallelism < 0 {
		c.MaxParallelism = 1
	}
	if c.Grace <= 0 {
		c.Grace = 10 * time.Second
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// Server is the partition service. Create with New, mount via Handler,
// release the workers with Close.
type Server struct {
	cfg   Config
	cache *resultCache
	pool  *pool
	store *store.Store
	hub   *islandHub // nil unless the server has island peers
	start time.Time
}

// New builds a server with its worker pool already running. The only error
// source is opening the graph store's spill directory.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	st, err := store.Open(cfg.StoreDir, cfg.StoreMaxBytes)
	if err != nil {
		return nil, err
	}
	cache := newResultCache(cfg.CacheSize)
	s := &Server{
		cfg:   cfg,
		cache: cache,
		pool:  newPool(cfg.Workers, cfg.QueueDepth, cache, cfg.JobTTL),
		store: st,
		start: time.Now(),
	}
	if len(cfg.Peers) > 0 {
		s.hub = newIslandHub(cfg.IslandID, cfg.Peers, cfg.ExchangeWait)
	}
	return s, nil
}

// Close stops accepting jobs and waits for in-flight work to finish.
func (s *Server) Close() { s.pool.close() }

// Handler returns the HTTP routing for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/methods", s.handleMethods)
	mux.HandleFunc("/v1/partition", s.handlePartition)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/graphs", s.handleGraphs)
	mux.HandleFunc("/v1/graphs/", s.handleGraphByID)
	mux.HandleFunc(islandExchangePath, s.handleIslandExchange)
	return mux
}

// partitionResponse is the body for job submission and polling.
type partitionResponse struct {
	JobID  string     `json:"job_id"`
	Status jobStatus  `json:"status"`
	Cached bool       `json:"cached,omitempty"`
	Result *ff.Result `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
	// Progress reports a queued or running job's live counters: steps
	// executed, best objective so far, portfolio width.
	Progress *ff.Progress `json:"progress,omitempty"`
	// Poll is the status URL for asynchronous submissions.
	Poll string `json:"poll,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// jsonBufs recycles response buffers across requests.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v before it commits the status, so a body JSON cannot
// represent (a non-finite objective, say) becomes a 500 with a JSON error
// instead of the intended status with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		what := "response"
		if pr, ok := v.(partitionResponse); ok {
			what = "result of job " + pr.JobID
			if pr.JobID == "" {
				what = "cached result"
			}
		}
		buf.Reset()
		code = http.StatusInternalServerError
		_ = enc.Encode(errorResponse{fmt.Sprintf("encoding %s: %v", what, err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"pool":           s.pool.snapshot(),
		"cache":          s.cache.stats(),
		"store":          s.store.Stats(),
	}
	if s.hub != nil {
		body["island"] = map[string]any{"id": s.cfg.IslandID, "peers": s.hub.peers}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"methods":    ff.MethodInfos(),
		"objectives": []string{"cut", "ncut", "mcut"},
	})
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, g, err := decodePartition(readBody(r, s.cfg.MaxBodyBytes), s.cfg.MaxBodyBytes)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	// Stored graphs come out of the store with their content digest for
	// free (the id is the digest, verified at upload); inline graphs hash
	// lazily below, only if a key is needed.
	digest := ""
	if g == nil {
		var ok bool
		if g, ok = s.store.Get(req.Graph.ID); !ok {
			writeError(w, http.StatusNotFound, "unknown graph id %q (never uploaded, evicted, or deleted)", req.Graph.ID)
			return
		}
		digest = req.Graph.ID
	}
	opt, err := req.options(s.cfg.MaxBudget, s.cfg.MaxParallelism)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	if opt.K > g.NumVertices() {
		writeError(w, http.StatusBadRequest, "k = %d exceeds vertex count %d", opt.K, g.NumVertices())
		return
	}
	if len(opt.WarmStart) != 0 && len(opt.WarmStart) != g.NumVertices() {
		writeError(w, http.StatusBadRequest, "warm_start has %d labels for %d vertices", len(opt.WarmStart), g.NumVertices())
		return
	}
	timeout, err := req.timeout(opt.Budget + s.cfg.Grace)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}

	// The graph content is hashed at most once per request: stored graphs
	// carry the digest in their id, and inline graphs hash lazily here only
	// when federation or the cache actually needs a key.
	contentID := func() string {
		if digest == "" {
			digest = graphDigest(g)
		}
		return digest
	}

	// Federated jobs never touch the result cache (key stays ""): a cache
	// hit on one island would skip the run — and its exchange rounds — while
	// a recomputing peer still expects a partner every round.
	var fed *federation
	if req.Federate {
		if s.hub == nil {
			writeError(w, http.StatusBadRequest,
				"federate requested but this server has no island peers (start ffserve with -island-id and -peers)")
			return
		}
		opt.Island = s.cfg.IslandID
		id := contentID()
		// The wire hash is the digest's raw bytes — submitting by stored
		// graph id federates without the graph content ever being rehashed
		// (or even sent) on this path.
		var h [wire.HashLen]byte
		if _, err := hex.Decode(h[:], []byte(id)); err != nil {
			writeError(w, http.StatusInternalServerError, "bad graph digest %q: %v", id, err)
			return
		}
		fed = &federation{hub: s.hub, key: exchangeKey(id, opt), hash: h}
	}

	key := ""
	if !req.NoCache && fed == nil {
		key = cacheKey(contentID(), opt)
		if res, ok := s.cache.get(key); ok {
			writeJSON(w, http.StatusOK, partitionResponse{
				JobID: "", Status: statusDone, Cached: true, Result: res,
			})
			return
		}
	}

	j, err := s.pool.submit(g, opt, key, timeout, fed)
	if err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}

	if req.Wait != nil && !*req.Wait {
		writeJSON(w, http.StatusAccepted, partitionResponse{
			JobID: j.id, Status: statusQueued, Poll: "/v1/jobs/" + j.id,
		})
		return
	}

	// The wait is bounded by this request's own timeout, not the job's:
	// a request that coalesced onto an earlier submission may have asked
	// for a much shorter deadline than the job it attached to.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-j.done:
		s.writeJobOutcome(w, j)
	case <-timer.C:
		writeJSON(w, http.StatusGatewayTimeout, partitionResponse{
			JobID: j.id, Status: statusRunning,
			Error: "timed out waiting; the job may still complete",
			Poll:  "/v1/jobs/" + j.id,
		})
	case <-r.Context().Done():
		// Client gone; the job keeps running and will populate the cache.
		writeError(w, statusClientClosedRequest, "client closed request; job %s still running", j.id)
	}
}

// statusClientClosedRequest is nginx's conventional code for a client that
// disconnected mid-request; the response is never seen, the code feeds logs.
const statusClientClosedRequest = 499

// writeRequestError answers a codec error: client mistakes get 400,
// anything else 500.
func (s *Server) writeRequestError(w http.ResponseWriter, err error) {
	writeError(w, requestStatus(err), "%v", err)
}

// requestStatus is the HTTP status of a codec error.
func requestStatus(err error) int {
	var bad *badRequestError
	if errors.As(err, &bad) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// writeJobOutcome renders a finished job.
func (s *Server) writeJobOutcome(w http.ResponseWriter, j *job) {
	status, res, err, _ := j.snapshot()
	switch status {
	case statusDone:
		writeJSON(w, http.StatusOK, partitionResponse{JobID: j.id, Status: status, Result: res})
	case statusCancelled:
		writeJSON(w, http.StatusConflict, partitionResponse{JobID: j.id, Status: status, Error: "job cancelled"})
	default:
		code := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		case errors.Is(err, engine.ErrPanicked):
			code = http.StatusInternalServerError
		}
		writeJSON(w, code, partitionResponse{JobID: j.id, Status: status, Error: err.Error()})
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "bad job path")
		return
	}
	switch r.Method {
	case http.MethodGet:
		j, ok := s.pool.get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		status, res, err, _ := j.snapshot()
		resp := partitionResponse{JobID: j.id, Status: status}
		switch status {
		case statusDone:
			resp.Result = res
		case statusFailed, statusCancelled:
			resp.Error = err.Error()
		default:
			// Queued or running: surface the engine's live incumbent
			// snapshot so pollers can watch the search converge.
			progress := j.mon.Progress()
			resp.Progress = &progress
		}
		writeJSON(w, http.StatusOK, resp)
	case http.MethodDelete:
		cancelled, found := s.pool.cancelJob(id)
		if !found {
			writeError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		if !cancelled {
			writeError(w, http.StatusConflict, "job %q already finished", id)
			return
		}
		writeJSON(w, http.StatusOK, partitionResponse{JobID: id, Status: statusCancelled})
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}
