package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	ff "repro"
	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vcycle"
)

// The traced replay sends nothing over HTTP. It calls each layer's
// exported entry point in the order, and with the arguments, the server and
// the facade use for the same request, one operation at a time, with a span
// around every call. Solver calls run inline on the replay's locked thread,
// as a one-worker portfolio runs them inside the server.
//
// Not reproduced from outside the program, and so not split out: queueing
// and worker hand-off, the HTTP transport, and, inside store.Put, the
// binary encoding and graph.Digest (churn reports both as store.put). The
// server's option normalization and cache-key hashing are mirrored but not
// spanned, so they count as unattributed time.

// replayer holds the replay's own server-side state: a graph store for
// churn and a result cache for repeats.
type replayer struct {
	tr    *tracer
	ctx   context.Context
	st    *store.Store
	cache map[string][]int32
}

func newReplayer() (*replayer, error) {
	st, err := store.Open("", 0)
	if err != nil {
		return nil, err
	}
	return &replayer{tr: newTracer(), ctx: context.Background(), st: st, cache: map[string][]int32{}}, nil
}

// partition replays POST /v1/partition and returns the parts the reply
// carries.
func (r *replayer) partition(body io.Reader) ([]int32, error) {
	tr := r.tr
	var req server.PartitionRequest
	var b *graph.Builder
	var err error
	tr.do("server.decode", func() {
		if err = json.NewDecoder(body).Decode(&req); err == nil && req.Graph.ID == "" {
			b, err = feedEdgeList(req.Graph)
		}
	})
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	digest := req.Graph.ID
	if b != nil {
		tr.do("graph.build", func() { g, err = b.Build() })
		if err != nil {
			return nil, err
		}
		tr.do("graph.digest", func() { digest = graph.Digest(g) })
	} else {
		ok := false
		tr.do("store.get", func() { g, ok = r.st.Get(digest) })
		if !ok {
			return nil, fmt.Errorf("unknown graph id %s", digest)
		}
	}
	opt, err := optionsOf(&req)
	if err != nil {
		return nil, err
	}
	key := cacheKey(digest, opt)
	if parts, ok := r.cache[key]; ok {
		tr.do("server.encode", func() {
			err = encodeReply(partitionResponse{Status: "done", Cached: true, Result: &ff.Result{Parts: parts}})
		})
		return parts, err
	}
	res, err := r.facade(g, opt)
	if err != nil {
		return nil, err
	}
	r.cache[key] = res.Parts
	tr.do("server.encode", func() {
		err = encodeReply(partitionResponse{JobID: "job-000000", Status: "done", Result: res})
	})
	return res.Parts, err
}

// cacheKey identifies a request the way the server's result cache does:
// graph content, the options the workloads vary, and a hash of the warm
// start.
func cacheKey(digest string, opt ff.Options) string {
	h := sha256.New()
	var buf [4]byte
	for _, a := range opt.WarmStart {
		binary.LittleEndian.PutUint32(buf[:], uint32(a))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s|%s|%d|%d|%d|%v|%v|%x", digest, opt.Method, opt.K, opt.Seed, opt.MaxSteps,
		opt.Multilevel, opt.Relayout, h.Sum(nil)[:16])
}

func encodeReply(v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// facade replays fusionfission.PartitionMonitored for the three request
// shapes the workloads send.
func (r *replayer) facade(g *graph.Graph, opt ff.Options) (*ff.Result, error) {
	tr, ctx := r.tr, r.ctx
	obj, err := objective.Parse(opt.Objective)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var inverse []int32
	if opt.Relayout {
		var perm []int32
		var rg *graph.Graph
		tr.do("order.locality", func() { perm = order.Locality(g) })
		tr.do("graph.relabel", func() { rg, err = graph.Relabel(g, perm) })
		if err != nil {
			return nil, err
		}
		if len(opt.WarmStart) > 0 {
			ws := make([]int32, len(opt.WarmStart))
			for v, a := range opt.WarmStart {
				ws[perm[v]] = a
			}
			opt.WarmStart = ws
		}
		g = rg
		tr.do("order.locality", func() { inverse = order.Inverse(perm) })
	}
	var warmSeed *partition.P
	var warmAssign []int32
	if len(opt.WarmStart) > 0 {
		tr.do("refine.repair", func() {
			if warmSeed, err = partition.FromAssignment(g, opt.WarmStart, opt.K); err == nil {
				refine.KWay(warmSeed, refine.KWayOptions{Objective: obj, Ctx: ctx})
				warmAssign = warmSeed.Assignment()
			}
		})
		if err != nil {
			return nil, err
		}
		if opt.Budget -= time.Since(start); opt.Budget < time.Millisecond {
			opt.Budget = time.Millisecond
		}
	}
	mon := engine.NewIncumbent()
	mon.SetWorkers(1)
	steps := opt.MaxSteps
	if steps <= 0 {
		steps = 2_000_000 // the experiments registry's default
	}
	var p *partition.P
	switch {
	case opt.Method == "fusion-fission" && !opt.Multilevel:
		id := tr.begin("core.solve")
		var init *partition.P
		if warmAssign != nil {
			init, err = partition.FromAssignment(g, warmAssign, g.NumVertices())
		}
		var res *core.Result
		if err == nil {
			res, err = core.PartitionContext(ctx, g, opt.K, core.Options{
				Objective: obj, Budget: opt.Budget, MaxSteps: steps, Seed: opt.Seed,
				Runtime: &engine.Runtime{Monitor: mon, SyncEvery: 1024}, Initial: init,
			})
		}
		tr.end(id)
		if err != nil {
			return nil, err
		}
		tr.spans[id].Steps = res.Steps
		p = res.Best
	case opt.Method == "annealing" && opt.Multilevel:
		buildStart := time.Now()
		var h *vcycle.Hierarchy
		tr.do("coarsen.build", func() { h, err = vcycle.Build(ctx, g, opt.CoarsenTo, opt.K, opt.Seed) })
		if err != nil {
			return nil, err
		}
		budget := opt.Budget
		if budget -= time.Since(buildStart); budget < time.Millisecond {
			budget = time.Millisecond
		}
		id := tr.begin("vcycle.uncoarsen")
		p, _, err = vcycle.Run(ctx, h, opt.K, vcycle.Options{
			Objective: obj, Budget: budget, Runtime: &engine.Runtime{Monitor: mon},
		}, func(sctx context.Context, cg *graph.Graph, k int, b time.Duration, srt *engine.Runtime) (*partition.P, bool, error) {
			sid := tr.begin("anneal.solve")
			res, err := anneal.PartitionContext(sctx, cg, k, anneal.Options{
				Objective: obj, Budget: b, MaxSteps: steps, Seed: opt.Seed, Runtime: srt,
			})
			tr.end(sid)
			if err != nil {
				return nil, false, err
			}
			tr.spans[sid].Steps = res.Steps
			return res.Best, res.Cancelled, nil
		})
		tr.end(id)
		if err != nil {
			return nil, err
		}
	case opt.Method == "annealing":
		id := tr.begin("anneal.solve")
		var init *partition.P
		if warmAssign != nil {
			init, err = partition.FromAssignment(g, warmAssign, opt.K)
		}
		var res *anneal.Result
		if err == nil {
			res, err = anneal.PartitionContext(ctx, g, opt.K, anneal.Options{
				Objective: obj, Budget: opt.Budget, MaxSteps: steps, Seed: opt.Seed,
				Runtime: &engine.Runtime{Monitor: mon, SyncEvery: 16_384}, Initial: init,
			})
		}
		tr.end(id)
		if err != nil {
			return nil, err
		}
		tr.spans[id].Steps = res.Steps
		p = res.Best
	default:
		return nil, fmt.Errorf("the replay does not cover method %q (multilevel %v)", opt.Method, opt.Multilevel)
	}
	res := &ff.Result{Method: opt.Method, Workers: 1}
	tr.do("objective.evaluate", func() {
		if warmSeed != nil && obj.Evaluate(p) > obj.Evaluate(warmSeed) {
			p = warmSeed
		}
		res.Cut, res.Ncut, res.Mcut = objective.EvaluateAll(p)
		res.Parts, res.NumParts, res.Imbalance = p.Compact(), p.NumParts(), objective.Imbalance(p)
	})
	res.Elapsed = time.Since(start)
	if inverse != nil {
		parts := make([]int32, len(res.Parts))
		for nv, a := range res.Parts {
			parts[inverse[nv]] = a
		}
		res.Parts = parts
	}
	return res, nil
}

// mutate replays POST /v1/graphs/{id}/mutate and returns the derived id.
func (r *replayer) mutate(id string, body []byte) (string, error) {
	tr := r.tr
	var req mutateRequest
	var err error
	tr.do("server.decode", func() { err = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	if err != nil {
		return "", err
	}
	var g *graph.Graph
	ok := false
	tr.do("store.get", func() { g, ok = r.st.Get(id) })
	if !ok {
		return "", fmt.Errorf("unknown graph id %s", id)
	}
	var derived *graph.Graph
	tr.do("graph.with_edits", func() { derived, err = g.WithEdits(req.Edits) })
	if err != nil {
		return "", err
	}
	var newID string
	tr.do("store.put", func() { newID, _, err = r.st.Put(derived) })
	if err != nil {
		return "", err
	}
	tr.do("server.encode", func() {
		err = encodeReply(graphResponse{ID: newID, Created: true, Parent: id, N: derived.NumVertices(), M: derived.NumEdges()})
	})
	return newID, err
}

// replay re-runs the window's completed operations one at a time, in the
// order the clients issued them (round-robin across clients), until every
// operation is replayed or the time limit is spent, and checks each
// replayed operation's parts (and churn graph ids) against its HTTP reply.
func replay(tr *traffic, samples [][]sample, warmup []byte, baseID string, limit time.Duration) (*tracer, int, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r, err := newReplayer()
	if err != nil {
		return nil, 0, err
	}
	var warm []int32
	prev, older := baseID, ""
	if tr.upload != nil {
		if _, _, err := r.st.Put(tr.graph); err != nil {
			return nil, 0, err
		}
		var resp partitionResponse
		if err := json.Unmarshal(warmup, &resp); err != nil || resp.Result == nil {
			return nil, 0, fmt.Errorf("warm-up reply carries no parts")
		}
		warm = resp.Result.Parts
	}
	deadline := time.Now().Add(limit)
	replayed := 0
	for i := 0; time.Now().Before(deadline); i++ {
		more := false
		for c := range samples {
			if i >= len(samples[c]) || !time.Now().Before(deadline) {
				continue
			}
			more = true
			smp := samples[c][i]
			if smp.err != nil {
				continue
			}
			var want partitionResponse
			if err := json.Unmarshal(smp.body, &want); err != nil || want.Result == nil {
				return nil, 0, fmt.Errorf("client %d op %d: reply carries no parts", c, smp.op)
			}
			o := tr.clients[c][smp.op]
			var tail []byte
			if tr.upload != nil {
				tail = warmTail(warm) // the client's work, outside the operation's span
			}
			r.tr.op = replayed
			root := r.tr.begin("op")
			var parts []int32
			if tr.upload == nil {
				parts, err = r.partition(io.MultiReader(readers(o.body)...))
			} else {
				var id string
				if id, err = r.mutate(prev, o.mutateBody); err == nil && id != smp.id {
					err = fmt.Errorf("replayed mutate derived %s, the server %s", id, smp.id)
				}
				if err == nil {
					body := append(byID(nil, o.body[0], id), tail...)
					parts, err = r.partition(bytes.NewReader(body))
				}
				if err == nil && older != "" {
					r.tr.do("store.delete", func() { r.st.Delete(older) })
				}
				prev, older, warm = id, prev, parts
			}
			r.tr.end(root)
			if err != nil {
				return nil, 0, fmt.Errorf("client %d op %d: replay: %w", c, smp.op, err)
			}
			if !equalParts(parts, want.Result.Parts) {
				return nil, 0, fmt.Errorf("client %d op %d: the replay's parts differ from the HTTP reply's", c, smp.op)
			}
			replayed++
		}
		if !more {
			break
		}
	}
	return r.tr, replayed, nil
}

func readers(segs [][]byte) []io.Reader {
	out := make([]io.Reader, len(segs))
	for i, s := range segs {
		out[i] = bytes.NewReader(s)
	}
	return out
}
