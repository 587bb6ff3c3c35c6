package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	ff "repro"
	"repro/internal/graph"
	"repro/internal/server"
)

// This file mirrors the few unexported steps of internal/server that the
// traced replay and the verifier need. The replay checks its final parts
// against every HTTP answer, so a mirror that drifts from the server fails
// the run instead of timing a different program.

// partitionResponse is the body of a POST /v1/partition reply.
type partitionResponse struct {
	JobID  string     `json:"job_id"`
	Status string     `json:"status"`
	Cached bool       `json:"cached,omitempty"`
	Result *ff.Result `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// graphResponse is the body of a PUT /v1/graphs or mutate reply.
type graphResponse struct {
	ID      string `json:"id"`
	Created bool   `json:"created,omitempty"`
	Parent  string `json:"parent,omitempty"`
	N       int    `json:"n"`
	M       int    `json:"m"`
}

// mutateRequest is the body of POST /v1/graphs/{id}/mutate.
type mutateRequest struct {
	Edits []graph.EdgeEdit `json:"edits"`
}

// healthz is the part of GET /healthz the benchmark reads.
type healthz struct {
	Pool struct {
		Coalesced int64 `json:"coalesced"`
	} `json:"pool"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Store struct {
		MemEntries int `json:"mem_entries"`
	} `json:"store"`
}

// feedEdgeList is the server's edge-list decoding up to, not including,
// Builder.Build: validation and one AddEdge per listed edge.
func feedEdgeList(spec server.GraphSpec) (*graph.Builder, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("graph: n must be positive, got %d", spec.N)
	}
	if len(spec.VertexWeights) != 0 && len(spec.VertexWeights) != spec.N {
		return nil, fmt.Errorf("graph: %d vertex weights for %d vertices", len(spec.VertexWeights), spec.N)
	}
	b := graph.NewBuilder(spec.N)
	for i, w := range spec.VertexWeights {
		b.SetVertexWeight(i, w)
	}
	for i, e := range spec.Edges {
		if len(e) != 2 && len(e) != 3 {
			return nil, fmt.Errorf("graph: edge %d has %d entries", i, len(e))
		}
		u, v := e[0], e[1]
		if u != math.Trunc(u) || v != math.Trunc(v) {
			return nil, fmt.Errorf("graph: edge %d has non-integer endpoints", i)
		}
		w := 1.0
		if len(e) == 3 {
			w = e[2]
		}
		b.AddEdge(int(u), int(v), w)
	}
	return b, nil
}

// maxBudget is the server's default budget clamp (server.Config.MaxBudget).
const maxBudget = 30 * time.Second

// optionsOf converts a request to normalized library options the way the
// server does for a default-configured server.
func optionsOf(r *server.PartitionRequest) (ff.Options, error) {
	opt := ff.Options{
		K: r.K, Method: r.Method, Objective: r.Objective, Seed: r.Seed,
		MaxSteps: r.MaxSteps, Parallelism: r.Parallelism, Multilevel: r.Multilevel,
		CoarsenTo: r.CoarsenTo, Relayout: r.Relayout, WarmStart: r.WarmStart,
		MemeticCrossover: r.MemeticCrossover,
	}
	if p := runtime.GOMAXPROCS(0); opt.Parallelism > p {
		opt.Parallelism = p
	}
	if r.Budget != "" {
		d, err := time.ParseDuration(r.Budget)
		if err != nil || d <= 0 {
			return ff.Options{}, fmt.Errorf("bad budget %q", r.Budget)
		}
		opt.Budget = d
	}
	opt, err := ff.Normalize(opt)
	if err != nil {
		return ff.Options{}, err
	}
	if opt.Budget > maxBudget {
		opt.Budget = maxBudget
	}
	return opt, nil
}
