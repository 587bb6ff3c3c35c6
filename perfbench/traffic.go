package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/airspace"
	"repro/internal/graph"
	"repro/internal/server"
)

// Request parameters shared by every workload. The budget is one no solve
// here comes near: every solve stops at its step cap, so two builds of the
// same code do identical work and return identical partitions.
const (
	numParts = 32
	budget   = "30s"
)

// workload describes one traffic mix; README.md says why each exists.
type workload struct {
	name    string
	clients int
	// rateCap bounds the operations per second per client the traffic pool
	// is sized for; a client that exhausts its pool stops early.
	rateCap int
	// group is the number of operations a client completes between two
	// looks at the clock, so per-group invariants (one repeat in four)
	// hold exactly over the window.
	group int
	gen   func(seed int64, poolOps int) (*traffic, error)
}

var workloads = []workload{
	{name: "paper-airspace", clients: 1, rateCap: 30, group: 1, gen: genAirspace},
	{name: "rg10k-vcycle-inline", clients: 2, rateCap: 20, group: 4, gen: genVCycleInline},
	{name: "rg10k-churn-warm", clients: 1, rateCap: 80, group: 1, gen: genChurn},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one pre-generated operation of a client's closed loop.
type op struct {
	seed int64
	// body is the POST /v1/partition body as segments sent back to back.
	// Inline workloads share one graph segment across every op; churn
	// bodies end where the run-time graph id and warm start are appended.
	body [][]byte
	// repeatOf is the index (in the same client's sequence) of the op this
	// one repeats verbatim, or -1 for a fresh request.
	repeatOf int
	// mutateBody is the churn operation's POST /v1/graphs/{id}/mutate body.
	mutateBody []byte
}

// traffic is everything a run sends, generated from the workload seed
// before any server exists.
type traffic struct {
	clients [][]op
	// warmup is the first request of every set-up; never part of the
	// timed window.
	warmup op
	// graph is the graph the inline workloads send, as the server builds
	// it from the sent bytes; for churn it is the uploaded base graph.
	graph *graph.Graph
	// upload is the churn base graph in the binary encoding, PUT during
	// set-up.
	upload []byte
	// fingerprint is the SHA-256 of all of the above, hex encoded.
	fingerprint string
	// size is the bytes all of the above occupy, shared segments once.
	size uint64
}

func partitionHead(method string, seed int64, maxSteps int, extra string) []byte {
	return []byte(fmt.Sprintf(`{"k":%d,"method":%q,"objective":"mcut","seed":%d,"budget":%q,"max_steps":%d,%s"graph":`,
		numParts, method, seed, budget, maxSteps, extra))
}

var closeBrace = []byte("}")

// requestSeeds returns count distinct request seeds drawn from the workload
// seed.
func requestSeeds(seed int64, count int) []int64 {
	base := rand.New(rand.NewSource(seed)).Int63n(1 << 40)
	out := make([]int64, count)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

const airspaceSteps = 1500

func genAirspace(seed int64, poolOps int) (*traffic, error) {
	g, _, err := airspace.Generate(airspace.Default())
	if err != nil {
		return nil, fmt.Errorf("airspace: %w", err)
	}
	inline := edgeListJSON(g)
	sent, err := inlineGraph(inline)
	if err != nil {
		return nil, err
	}
	seeds := requestSeeds(seed, poolOps+1)
	mk := func(s int64) op {
		return op{seed: s, repeatOf: -1, body: [][]byte{partitionHead("fusion-fission", s, airspaceSteps, ""), inline, closeBrace}}
	}
	ops := make([]op, poolOps)
	for i := range ops {
		ops[i] = mk(seeds[i+1])
	}
	return finish(&traffic{clients: [][]op{ops}, warmup: mk(seeds[0]), graph: sent}), nil
}

const (
	rgVertices  = 10000
	rgRadius    = 0.02
	vcycleSteps = 20000
)

func genVCycleInline(seed int64, poolOps int) (*traffic, error) {
	inline := edgeListJSON(graph.RandomGeometric(rgVertices, rgRadius, seed))
	sent, err := inlineGraph(inline)
	if err != nil {
		return nil, err
	}
	const clients = 2
	seeds := requestSeeds(seed, clients*poolOps+1)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	mk := func(s int64) op {
		return op{seed: s, repeatOf: -1, body: [][]byte{
			partitionHead("annealing", s, vcycleSteps, `"multilevel":true,"relayout":true,`), inline, closeBrace}}
	}
	t := &traffic{warmup: mk(seeds[0]), graph: sent}
	next := 1
	for c := 0; c < clients; c++ {
		ops := make([]op, poolOps)
		for i := range ops {
			if i%4 == 3 {
				// A verbatim repeat of one of the three fresh requests this
				// client completed just before it: still in the LRU, so a
				// guaranteed hit, but only after full decode and digest.
				j := i - 1 - r.Intn(3)
				ops[i] = ops[j]
				ops[i].repeatOf = j
				continue
			}
			ops[i] = mk(seeds[next])
			next++
		}
		t.clients = append(t.clients, ops)
	}
	return finish(t), nil
}

const (
	churnSteps     = 20000
	churnEditShare = 0.005
	// churnReserve is the share of the generated graph's edges held out of
	// the uploaded base. Every operation removes present edges and adds
	// held-out ones, so each version is a fresh subsample of the same
	// geometric graph and the chain does not drift in structure or cost.
	churnReserve = 0.05
)

func genChurn(seed int64, poolOps int) (*traffic, error) {
	full := graph.RandomGeometric(rgVertices, rgRadius, seed)
	r := rand.New(rand.NewSource(seed ^ 0xc4a7))
	present, absent := &edgePool{index: map[uint64]int{}}, &edgePool{index: map[uint64]int{}}
	full.ForEachEdge(func(u, v int, _ float64) { present.add(edgeKey(u, v)) })
	for i := int(math.Round(churnReserve * float64(full.NumEdges()))); i > 0; i-- {
		k := present.draw(r)
		present.remove(k)
		absent.add(k)
	}
	b := graph.NewBuilder(rgVertices)
	for _, k := range present.edges {
		u, v := splitKey(k)
		b.AddEdge(u, v, 1)
	}
	base, err := b.Build()
	if err != nil {
		return nil, err
	}
	seeds := requestSeeds(seed, poolOps+1)
	mk := func(s int64) op {
		return op{seed: s, repeatOf: -1, body: [][]byte{partitionHead("annealing", s, churnSteps, "")}}
	}
	perOp := int(math.Round(churnEditShare * float64(base.NumEdges())))
	ops := make([]op, poolOps)
	for i := range ops {
		body, err := json.Marshal(mutateRequest{Edits: churnEdits(present, absent, r, perOp)})
		if err != nil {
			return nil, fmt.Errorf("encoding edits: %w", err)
		}
		ops[i] = mk(seeds[i+1])
		ops[i].mutateBody = body
	}
	// The chain starts from a V-cycle solve of the base graph, as an
	// incremental repartitioning service would: a good partition to keep.
	warmup := op{seed: seeds[0], repeatOf: -1, body: [][]byte{partitionHead("annealing", seeds[0], churnSteps, `"multilevel":true,`)}}
	t := &traffic{clients: [][]op{ops}, warmup: warmup, graph: base, upload: graph.EncodeBinary(base)}
	return finish(t), nil
}

// churnEdits removes count random present edges and adds count random
// held-out ones. No edge is touched twice in one operation: edges removed
// here become eligible for adding from the next operation on.
func churnEdits(present, absent *edgePool, r *rand.Rand, count int) []graph.EdgeEdit {
	edits := make([]graph.EdgeEdit, 0, 2*count)
	added := make(map[uint64]bool, count)
	removed := make([]uint64, 0, count)
	for len(removed) < count {
		k := present.draw(r)
		if added[k] {
			continue
		}
		present.remove(k)
		removed = append(removed, k)
		u, v := splitKey(k)
		edits = append(edits, graph.EdgeEdit{Op: "remove", U: u, V: v})
		a := absent.draw(r)
		absent.remove(a)
		present.add(a)
		added[a] = true
		u, v = splitKey(a)
		edits = append(edits, graph.EdgeEdit{Op: "add", U: u, V: v})
	}
	for _, k := range removed {
		absent.add(k)
	}
	return edits
}

// byID completes a churn request's pre-generated head with the graph id the
// mutate returned. Like the warm start (warmTail), the id is known only
// once the previous step has answered, and is a deterministic function of
// the traffic.
func byID(buf, head []byte, id string) []byte {
	buf = append(buf[:0], head...)
	buf = append(buf, `{"id":"`...)
	buf = append(buf, id...)
	return append(buf, `"}`...)
}

// warmTail closes a churn request, with the previous operation's parts as
// the warm start when there are any.
func warmTail(warm []int32) []byte {
	if warm == nil {
		return []byte("}")
	}
	buf := []byte(`,"warm_start":[`)
	for i, a := range warm {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(a), 10)
	}
	return append(buf, "]}"...)
}

// finish fingerprints and sizes the traffic. Shared segments are hashed
// and counted once, and enter the fingerprint by their own digest.
func finish(t *traffic) *traffic {
	h := sha256.New()
	memo := map[*byte][32]byte{}
	seen := map[*byte]bool{}
	seg := func(b []byte) {
		if len(b) == 0 {
			return
		}
		if !seen[&b[0]] {
			seen[&b[0]] = true
			t.size += uint64(cap(b))
		}
		if len(b) < 4096 {
			h.Write(b)
			return
		}
		d, ok := memo[&b[0]]
		if !ok {
			d = sha256.Sum256(b)
			memo[&b[0]] = d
		}
		h.Write(d[:])
	}
	writeOp := func(o op) {
		fmt.Fprintf(h, "op %d %d\n", o.seed, o.repeatOf)
		for _, b := range o.body {
			seg(b)
		}
		seg(o.mutateBody)
	}
	seg(t.upload)
	writeOp(t.warmup)
	for c, ops := range t.clients {
		fmt.Fprintf(h, "client %d %d\n", c, len(ops))
		for _, o := range ops {
			writeOp(o)
		}
	}
	t.fingerprint = hex.EncodeToString(h.Sum(nil))
	return t
}

// edgeListJSON renders g as an inline GraphSpec edge list, with weights
// only where they are not 1.
func edgeListJSON(g *graph.Graph) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"n":%d,"edges":[`, g.NumVertices())
	var num []byte
	first := true
	g.ForEachEdge(func(u, v int, w float64) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		num = append(num[:0], '[')
		num = strconv.AppendInt(num, int64(u), 10)
		num = append(num, ',')
		num = strconv.AppendInt(num, int64(v), 10)
		if w != 1 {
			num = append(num, ',')
			num = strconv.AppendFloat(num, w, 'g', -1, 64)
		}
		b.Write(append(num, ']'))
	})
	b.WriteByte(']')
	if !g.UnitVertexWeights() {
		b.WriteString(`,"vertex_weights":[`)
		for v := 0; v < g.NumVertices(); v++ {
			if v > 0 {
				b.WriteByte(',')
			}
			b.Write(strconv.AppendFloat(nil, g.VertexWeight(v), 'g', -1, 64))
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.Bytes()
}

// inlineGraph builds the graph the server builds from an inline edge list.
func inlineGraph(spec []byte) (*graph.Graph, error) {
	var gs server.GraphSpec
	if err := json.Unmarshal(spec, &gs); err != nil {
		return nil, fmt.Errorf("decoding generated graph: %w", err)
	}
	b, err := feedEdgeList(gs)
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// edgePool is a set of undirected edges with uniform random draws.
type edgePool struct {
	edges []uint64 // edgeKey values
	index map[uint64]int
}

// edgeKey packs an undirected edge, smaller endpoint first.
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func splitKey(k uint64) (int, int) { return int(k >> 32), int(uint32(k)) }

func (p *edgePool) add(k uint64) {
	p.index[k] = len(p.edges)
	p.edges = append(p.edges, k)
}

func (p *edgePool) remove(k uint64) {
	i := p.index[k]
	last := p.edges[len(p.edges)-1]
	p.edges[i] = last
	p.index[last] = i
	p.edges = p.edges[:len(p.edges)-1]
	delete(p.index, k)
}

func (p *edgePool) draw(r *rand.Rand) uint64 { return p.edges[r.Intn(len(p.edges))] }
