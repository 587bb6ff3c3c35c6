// Command ffserve runs the partition-as-a-service HTTP API.
//
// Usage:
//
//	ffserve -addr :8080 -workers 8 -cache 512
//
// Endpoints:
//
//	POST   /v1/partition           partition a graph (inline or by stored id)
//	GET    /v1/jobs/{id}           poll an asynchronous job
//	DELETE /v1/jobs/{id}           cancel a job
//	PUT    /v1/graphs              upload a graph, get its content id
//	GET    /v1/graphs/{id}         stored-graph metadata
//	DELETE /v1/graphs/{id}         drop a stored graph
//	POST   /v1/graphs/{id}/mutate  derive a new graph by edge edits
//	GET    /v1/methods             list methods and objectives
//	GET    /healthz                liveness and statistics
//
// With -store-dir the graph store spills to disk: uploads survive restarts
// and memory eviction, and warm-started repartitions of mutated graphs skip
// re-uploading entirely.
//
// With -island-id and -peers the instance joins a federated fleet: flat
// annealing and genetic requests carrying "federate": true exchange
// incumbents with the peer instances over POST /v1/islands/exchange, and
// every island converges on the same winner. Other methods run independent
// island searches; the client reduces their results.
//
//	ffserve -addr :8080 -island-id 0 -peers http://10.0.0.2:8080
//
// Example request:
//
//	curl -s localhost:8080/v1/partition -d '{
//	  "graph": {"n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]},
//	  "k": 2, "method": "fusion-fission", "seed": 7, "budget": "200ms"
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "concurrent partition computations (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "max jobs waiting for a worker before 503")
		cacheSize = flag.Int("cache", 256, "LRU result-cache entries (negative disables)")
		maxBudget = flag.Duration("max-budget", 30*time.Second, "clamp on per-request metaheuristic budget")
		maxPar    = flag.Int("max-parallelism", 0, "clamp on per-request portfolio width (0 = GOMAXPROCS, negative = force serial)")
		grace     = flag.Duration("grace", 10*time.Second, "slack added to a request's budget to form its job deadline")
		jobTTL    = flag.Duration("job-ttl", 15*time.Minute, "how long finished jobs stay pollable")
		islandID  = flag.Int("island-id", 0, "this instance's id in a federated fleet (unique per island)")
		peers     = flag.String("peers", "", "comma-separated base URLs of the other islands (enables federation)")
		exchWait  = flag.Duration("exchange-wait", 30*time.Second, "long-poll cap for a peer's candidate per exchange round")
		storeDir  = flag.String("store-dir", "", "graph-store spill directory (empty = memory-only store)")
		storeMax  = flag.Int64("store-max-bytes", 0, "graph-store memory-tier bound in encoded bytes (0 = 256 MiB)")
	)
	flag.Parse()

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, strings.TrimRight(p, "/"))
		}
	}
	if *islandID < 0 {
		fatal(fmt.Errorf("-island-id must be >= 0, got %d", *islandID))
	}
	if *islandID > 0 && len(peerList) == 0 {
		fatal(errors.New("-island-id set but no -peers; a fleet needs both"))
	}

	srv, err := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		MaxBudget:      *maxBudget,
		MaxParallelism: *maxPar,
		Grace:          *grace,
		JobTTL:         *jobTTL,
		IslandID:       *islandID,
		Peers:          peerList,
		ExchangeWait:   *exchWait,
		StoreDir:       *storeDir,
		StoreMaxBytes:  *storeMax,
	})
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		if len(peerList) > 0 {
			log.Printf("ffserve island %d listening on %s, peers %v", *islandID, *addr, peerList)
		} else {
			log.Printf("ffserve listening on %s", *addr)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case s := <-sig:
		log.Printf("ffserve: %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("ffserve: shutdown: %v", err)
		}
		srv.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ffserve:", err)
	os.Exit(1)
}
