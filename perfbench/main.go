// Command perfbench is the repository's end-to-end benchmark: it drives an
// in-process internal/server over loopback HTTP with traffic generated from
// a workload seed, verifies every reply, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics from a traced replay of the same
// traffic) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload paper-airspace --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// setupReps is how many times a run sets up (server, uploads, first
// request); setup_s is the median.
const setupReps = 5

// minSamples is the fewest latency samples a run accepts: p90 needs ten
// samples above its rank.
const minSamples = 100

// layerSpans are the traced layers, reported as <name>_ms: mean self time
// per replayed operation. A layer a workload never calls reports 0.
var layerSpans = []string{
	"server.decode", "graph.build", "graph.digest", "order.locality", "graph.relabel",
	"coarsen.build", "vcycle.uncoarsen", "graph.with_edits", "store.put", "store.get",
	"store.delete", "refine.repair", "core.solve", "anneal.solve", "objective.evaluate",
	"server.encode",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (paper-airspace, rg10k-vcycle-inline, rg10k-churn-warm)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed sends the same traffic")
		seconds = flag.Int("seconds", 25, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced replay; 0 = end-to-end metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench-runs"), "directory for run reports and spans")
	)
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(wl, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is everything a run records besides its metrics, for comparing
// runs: two runs with equal traffic fingerprints sent the same requests,
// and equal Mcut sequences (up to the shorter one) got the same answers.
type report struct {
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Seconds        int               `json:"seconds"`
	Host           host              `json:"host"`
	TrafficSHA256  string            `json:"traffic_sha256"`
	McutSequence   [][]float64       `json:"mcut_sequence"` // per client, per operation; -1 for a failed one
	McutSeqSHA256  string            `json:"mcut_sequence_sha256"`
	Samples        int               `json:"samples"`
	WindowSeconds  float64           `json:"window_s"`
	PoolExhausted  bool              `json:"pool_exhausted"`
	SetupSeconds   []float64         `json:"setup_s_runs"`
	Replayed       int               `json:"replayed_ops,omitempty"`
	NotReplayed    string            `json:"not_replayed,omitempty"`
	Metrics        map[string]metric `json:"metrics"`
	AccountingNote string            `json:"accounting_note,omitempty"`
}

func run(wl workload, seed int64, seconds int, traced bool, outDir string) (*result, error) {
	rep := report{Workload: wl.name, Seed: seed, Seconds: seconds, Host: newHost()}
	poolOps := (wl.rateCap*seconds + wl.group - 1) / wl.group * wl.group
	tr, err := wl.gen(seed, poolOps)
	if err != nil {
		return nil, fmt.Errorf("generating traffic: %w", err)
	}
	rep.TrafficSHA256 = tr.fingerprint

	// Set-up, several times; the last server stays up for the window. Every
	// warm-up reply is verified and must be identical across set-ups.
	var s *session
	var warmParts []int32
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		if s, err = setUp(wl, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupSeconds = append(rep.SetupSeconds, time.Since(t0).Seconds())
		resp, err := verifyPartition(s.warmup, tr.graph, numParts)
		if err == nil && warmParts != nil && !equalParts(warmParts, resp.Result.Parts) {
			err = errors.New("differs from the first set-up's")
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up reply: %w", err)
		}
		warmParts = resp.Result.Parts
	}

	w, err := s.measure(wl, tr, time.Duration(seconds)*time.Second)
	s.close()
	if err != nil {
		return nil, err
	}
	rep.Host.StealShare = w.steal
	rep.WindowSeconds = w.elapsed.Seconds()
	for c, smp := range w.samples {
		rep.Samples += len(smp)
		if len(smp) == len(tr.clients[c]) {
			rep.PoolExhausted = true
		}
	}
	v, err := verifyWindow(wl, tr, w, s.warmup)
	if err != nil {
		return nil, err
	}
	rep.McutSequence = v.mcuts
	rep.McutSeqSHA256 = sequenceDigest(v.mcuts)
	if v.attempted-v.failed < minSamples {
		return nil, fmt.Errorf("%d successful operations in the window; p90 needs %d — raise --seconds", v.attempted-v.failed, minSamples)
	}

	ops := float64(v.attempted)
	metrics := map[string]metric{}
	if !traced {
		p50, err := percentile(v.latencies, 50)
		if err != nil {
			return nil, err
		}
		p90, err := percentile(v.latencies, 90)
		if err != nil {
			return nil, err
		}
		if math.IsInf(p90, 1) {
			return nil, fmt.Errorf("p90 latency is a failed operation (%d of %d failed)", v.failed, v.attempted)
		}
		metrics["setup_s"] = metric{median(rep.SetupSeconds), "s"}
		metrics["latency_p50_ms"] = metric{p50, "ms"}
		metrics["latency_p90_ms"] = metric{p90, "ms"}
		metrics["throughput_ops_s"] = metric{float64(v.attempted-v.failed) / w.elapsed.Seconds(), "1/s"}
		metrics["cpu_ms_per_op"] = metric{ms(w.cpu) / ops, "ms"}
		mcut, err := prefixMean(v.mcuts, (minSamples+wl.clients-1)/wl.clients)
		if err != nil {
			return nil, err
		}
		metrics["mcut_mean"] = metric{mcut, "mcut"}
		metrics["alloc_mb_per_op"] = metric{float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / (1 << 20) / ops, "MiB"}
		metrics["heap_live_mb"] = metric{float64(w.heapLive) / (1 << 20), "MiB"}
		metrics["success_ratio"] = metric{float64(v.attempted-v.failed) / ops, "ratio"}
	} else {
		metrics["error_ratio"] = metric{float64(v.failed) / ops, "ratio"}
		metrics["server.overhead_ms"] = metric{median(v.overheads), "ms"}
		metrics["server.cache_hit_ratio"] = metric{hitRatio(countersOf(w.health0), countersOf(w.health1)), "ratio"}
		metrics["server.coalesced"] = metric{float64(w.health1.Pool.Coalesced - w.health0.Pool.Coalesced), "count"}
		metrics["store.mem_entries"] = metric{float64(w.health1.Store.MemEntries), "count"}
		metrics["runtime.gc_cycles_per_op"] = metric{float64(w.mem1.NumGC-w.mem0.NumGC) / ops, "count"}
		metrics["runtime.gc_pause_ms_per_op"] = metric{float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6 / ops, "ms"}

		tracer, replayed, err := replay(tr, w.samples, s.warmup, s.baseID, time.Duration(seconds)*time.Second/4)
		if err != nil {
			return nil, err
		}
		rep.Replayed = replayed
		rep.NotReplayed = "server cache-key hashing, queueing and transport; binary encoding and digest inside store.put"
		st := aggregate(tracer.spans)
		for _, l := range layerSpans {
			metrics[l+"_ms"] = metric{float64(st.selfNs[l]) / 1e6 / float64(replayed), "ms"}
		}
		for _, l := range []string{"core.solve", "anneal.solve"} {
			rate := 0.0
			if st.cpuNs[l] > 0 {
				rate = float64(st.steps[l]) / (float64(st.cpuNs[l]) / 1e9)
			}
			metrics[l[:len(l)-len(".solve")]+".steps_per_cpu_s"] = metric{rate, "1/s"}
		}
		metrics["trace.unattributed_share"] = metric{st.unattributed, "ratio"}
		if err := writeJSON(filepath.Join(outDir, runName(wl.name, seed, traced)+"-spans.json"), tracer.spans); err != nil {
			return nil, err
		}
	}
	rep.AccountingNote = v.accountingNote
	rep.Metrics = metrics
	path := filepath.Join(outDir, runName(wl.name, seed, traced)+".json")
	if err := writeJSON(path, rep); err != nil {
		return nil, err
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%v\n", wl.name, seed, seconds, traced)
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s steal_share=%.4f\n", rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.StealShare)
	fmt.Printf("traffic_sha256=%s mcut_sequence_sha256=%s\n", rep.TrafficSHA256, rep.McutSeqSHA256)
	fmt.Printf("samples=%d window_s=%.3f pool_exhausted=%v setup_s_runs=%v\n", rep.Samples, rep.WindowSeconds, rep.PoolExhausted, rep.SetupSeconds)
	if traced {
		fmt.Printf("replayed_ops=%d\n", rep.Replayed)
	}
	fmt.Printf("report=%s\n", path)
	return &result{Correct: true, Attempted: v.attempted, Failed: v.failed, Metrics: metrics}, nil
}

// window is what the timed window measured.
type window struct {
	samples          [][]sample
	elapsed          time.Duration
	cpu              time.Duration
	steal            float64
	mem0, mem1       runtime.MemStats
	heapLive         uint64 // bytes, less the traffic and replies the client keeps
	health0, health1 healthz
}

// measure runs the timed window: every client's closed loop, bracketed by
// counter, CPU, /proc/stat and allocator readings taken outside it.
func (s *session) measure(wl workload, tr *traffic, length time.Duration) (*window, error) {
	w := &window{}
	var err error
	if w.health0, err = s.health(); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	cpu0, ticks0 := processCPU(), readCPUTicks()
	start := time.Now()
	w.samples = s.runWindow(wl, tr, start.Add(length))
	w.elapsed = time.Since(start)
	w.cpu = processCPU() - cpu0
	w.steal = stealShare(ticks0, readCPUTicks())
	runtime.ReadMemStats(&w.mem1)
	// The server drops finished jobs (and the graphs they pin) only when a
	// job is submitted, so whether the window's last jobs are still indexed
	// would depend on timing. One tiny uncached request after the TTL sweeps
	// them. The second collection empties the sync.Pool victim caches.
	time.Sleep(2 * serverConfig().JobTTL)
	if _, err := s.do(http.MethodPost, "/v1/partition", "", sweepRequest); err != nil {
		return nil, fmt.Errorf("sweep request: %w", err)
	}
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	// Not the server's: the pre-generated traffic, and the replies kept for
	// verification, whose total follows the number of operations completed.
	w.heapLive = live.HeapAlloc - tr.size
	for _, smps := range w.samples {
		for _, smp := range smps {
			w.heapLive -= uint64(cap(smp.body))
		}
	}
	if w.health1, err = s.health(); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return w, nil
}

// sweepRequest is a four-vertex, uncached solve.
var sweepRequest = []byte(`{"k":2,"method":"linear-bi","no_cache":true,"graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]}}`)

// verified is what verification extracted from the window.
type verified struct {
	attempted, failed int
	latencies         []float64   // ms; a failed operation counts as +Inf
	overheads         []float64   // ms: partition latency minus the solve's elapsed, fresh solves only
	mcuts             [][]float64 // per client, per operation; -1 for failed ones
	accountingNote    string
}

// verifyWindow checks every reply of the window (outside it) and fails
// naming the first operation whose 2xx reply is wrong.
func verifyWindow(wl workload, tr *traffic, w *window, warmup []byte) (*verified, error) {
	v := &verified{}
	var hits, misses int64
	for c, smps := range w.samples {
		name := func(smp sample) string {
			return fmt.Sprintf("%s client %d op %d (seed %d)", wl.name, c, smp.op, tr.clients[c][smp.op].seed)
		}
		replies := make([]*partitionResponse, len(smps))
		mcuts := make([]float64, len(smps))
		g := tr.graph
		var warm []int32
		if tr.upload != nil {
			var resp partitionResponse
			if err := json.Unmarshal(warmup, &resp); err != nil || resp.Result == nil {
				return nil, errors.New("warm-up reply carries no parts")
			}
			warm = resp.Result.Parts
		}
		for i, smp := range smps {
			v.attempted++
			if smp.invalid != nil {
				return nil, fmt.Errorf("%s: unusable 2xx reply: %v", name(smp), smp.invalid)
			}
			if smp.err != nil {
				v.failed++
				v.latencies = append(v.latencies, math.Inf(1))
				mcuts[i] = -1
				continue
			}
			o := tr.clients[c][smp.op]
			if tr.upload != nil {
				var req mutateRequest
				if err := json.Unmarshal(o.mutateBody, &req); err != nil {
					return nil, fmt.Errorf("%s: re-reading edits: %v", name(smp), err)
				}
				next, err := g.WithEdits(req.Edits)
				if err != nil {
					return nil, fmt.Errorf("%s: local edits: %v", name(smp), err)
				}
				if err := verifyMutateID(smp.id, next); err != nil {
					return nil, fmt.Errorf("%s: %v", name(smp), err)
				}
				g = next
			}
			resp, err := verifyPartition(smp.body, g, numParts)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", name(smp), err)
			}
			switch {
			case o.repeatOf >= 0:
				if err := verifyRepeat(replies[o.repeatOf], resp); err != nil {
					return nil, fmt.Errorf("%s: %v", name(smp), err)
				}
				hits++
			case resp.Cached:
				return nil, fmt.Errorf("%s: a fresh request was served from the cache", name(smp))
			default:
				misses++
				v.overheads = append(v.overheads, ms(smp.solve-resp.Result.Elapsed))
			}
			if warm != nil {
				if err := verifyWarmFloor(resp.Result, g, warm, numParts); err != nil {
					return nil, fmt.Errorf("%s: %v", name(smp), err)
				}
				warm = resp.Result.Parts
			}
			replies[i] = resp
			mcuts[i] = resp.Result.Mcut
			v.latencies = append(v.latencies, ms(smp.latency))
		}
		v.mcuts = append(v.mcuts, mcuts)
	}
	if v.failed > 0 {
		// A failed request may or may not have reached the cache lookup.
		v.accountingNote = "cache accounting not checked: some operations failed"
	} else if err := checkAccounting(countersOf(w.health0), countersOf(w.health1), hits, misses); err != nil {
		return nil, fmt.Errorf("%s: %v", wl.name, err)
	}
	return v, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// prefixMean is the mean Mcut over the first n operations of every client:
// the same requests in every run of a seed, however many operations the
// window completes. A failed operation in the prefix fails the run.
func prefixMean(mcuts [][]float64, n int) (float64, error) {
	var xs []float64
	for c, seq := range mcuts {
		if len(seq) < n {
			return 0, fmt.Errorf("client %d completed %d operations; mcut_mean averages the first %d", c, len(seq), n)
		}
		for i, x := range seq[:n] {
			if x < 0 {
				return 0, fmt.Errorf("client %d op %d failed; mcut_mean averages the first %d operations", c, i, n)
			}
		}
		xs = append(xs, seq[:n]...)
	}
	return mean(xs), nil
}

func sequenceDigest(xss [][]float64) string {
	h := sha256.New()
	for c, xs := range xss {
		for i, x := range xs {
			fmt.Fprintf(h, "%d %d %s\n", c, i, strconv.FormatFloat(x, 'g', -1, 64))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runName(workload string, seed int64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", workload, seed, t)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
