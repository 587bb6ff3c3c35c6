package anneal

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/score"
)

// Benchmarks for the Metropolis proposal hot path, comparing against a
// frozen replica of the pre-ISSUE-6 target draw:
//
//   - BenchmarkAnnealSteps/hot-allocscan: the old high-temperature proposal —
//     partition.NonEmptyParts() (one fresh []int per proposal) plus an O(k)
//     PartInternalOrdered scan on every proposal, and a second adjacency
//     scan inside every accepted commit (the conn cache is dropped to
//     replicate the pre-ISSUE-6 Apply).
//   - BenchmarkAnnealSteps/hot-argmin: the real chooseTarget reading the
//     partition's incrementally-maintained two-smallest argmin cache, with
//     Apply committing through the adjacency split MoveDelta already
//     computed.
//   - BenchmarkAnnealSteps/cold: the low-temperature random-connected-part
//     draw (timestamp-mark scratch, allocation-free).
//
// All variants run the complete proposal body — vertex draw, target draw,
// balance cap, tracker MoveDelta, Boltzmann acceptance, tracker Apply — so
// the reported steps/s are whole-loop figures, not microbenchmarks of the
// target draw alone. Each reports a steps/s metric.
//
// The committed BENCH_anneal.json baseline is regenerated on the
// BENCH_score.json acceptance instance (10k-vertex random geometric graph,
// k = 32) with:
//
//	BENCH_ANNEAL_BASELINE=1 go test -run TestWriteAnnealBaseline -timeout 30m ./internal/anneal/
//
// TestAnnealBenchSmoke is the CI-sized regression gate against that file.

// fullMoveDelta is a faithful replica of score.Tracker.MoveDelta as it stood
// before ISSUE 6: one O(deg v) adjacency scan with the four-way
// unassigned/from/to/other switch (no precomputed weighted degree shortcut),
// the post-move stat arithmetic of score.moveStatsFromConns, and the
// cached-term swap against the running total. The real MoveDelta now feeds
// the adjacency split and post-move terms into the tracker's connection
// cache; this replica deliberately does not, so a following Apply pays the
// pre-ISSUE-6 commit cost (per-edge partition.Move plus two term
// recomputations).
func fullMoveDelta(tr *score.Tracker, obj objective.Objective, eps float64, v, from, to int) float64 {
	p := tr.Partition()
	g := p.Graph()
	nbrs := g.Neighbors(v)
	wts := g.Weights(v)
	var connA, connB, other float64
	for i, u := range nbrs {
		switch p.Part(int(u)) {
		case partition.Unassigned:
		case from:
			connA += wts[i]
		case to:
			connB += wts[i]
		default:
			other += wts[i]
		}
	}
	loop2 := 2 * g.VertexLoop(v)
	afterA := obj.Term(p.PartCut(from)+connA-connB-other, p.PartInternalOrdered(from)-2*connA-loop2, eps)
	afterB := obj.Term(p.PartCut(to)+connA-connB+other, p.PartInternalOrdered(to)+2*connB+loop2, eps)
	if p.PartSize(from) == 1 {
		afterA = 0
	}
	// The old moveValueFromConns swapped terms through small loops with
	// per-element IsInf bookkeeping; replicate that shape, not today's
	// streamlined fast path.
	finite, infs := tr.Value(), 0
	for _, old := range [2]float64{tr.PartTerm(from), tr.PartTerm(to)} {
		if math.IsInf(old, 1) {
			infs--
		} else {
			finite -= old
		}
	}
	for _, nw := range [2]float64{afterA, afterB} {
		if math.IsInf(nw, 1) {
			infs++
		} else {
			finite += nw
		}
	}
	after := finite
	if infs > 0 {
		after = math.Inf(1)
	}
	before := tr.Value()
	if math.IsInf(after, 1) && math.IsInf(before, 1) {
		return 0
	}
	return after - before
}

// allocScanTarget is a faithful replica of chooseTarget's high-temperature
// branch as it stood before the incremental argmin: allocate the non-empty
// part list, scan every part's internal weight. Kept as the benchmark
// baseline so the speedup of the argmin path stays measurable.
func allocScanTarget(p *partition.P, v int) int {
	bestPart, bestW := -1, 0.0
	for _, a := range p.NonEmptyParts() {
		if a == p.Part(v) {
			continue
		}
		if w := p.PartInternalOrdered(a); bestPart < 0 || w < bestW {
			bestPart, bestW = a, w
		}
	}
	return bestPart
}

// proposalBurst drives `steps` complete Metropolis proposals over tr's
// partition at temperature t. mode selects the target draw: "hot-argmin"
// and "hot-allocscan" force the high-temperature branch (real argmin vs the
// frozen replica), "cold" forces the random-connected-part draw. Returns
// the number of accepted moves so the work cannot be optimized away.
func proposalBurst(tr *score.Tracker, s *targetScratch, r *rand.Rand, tMax, t, maxPartVW, eps float64, steps int, mode string) int {
	p := tr.Partition()
	g := p.Graph()
	n := g.NumVertices()
	accepted := 0
	// Resolve the mode string once: a per-proposal string compare would tax
	// both sides of the comparison with harness overhead.
	const (
		modeHotAlloc = iota
		modeHotArgmin
		modeCold
	)
	m := modeCold
	switch mode {
	case "hot-allocscan":
		m = modeHotAlloc
	case "hot-argmin":
		m = modeHotArgmin
	}
	unitVW := g.UnitVertexWeights()
	invT := 1 / t // production hoists the reciprocal out of the accept test
	// hot-argmin and cold draw their vertex stream exactly as the production
	// loop does — splitmix batches — while the frozen hot-allocscan replica
	// keeps the pre-batching per-step math/rand draw it is meant to preserve.
	prop := rng.NewSplitmix(r.Uint64())
	var batch [proposalBatchSize]int32
	batchPos := proposalBatchSize
	for i := 0; i < steps; i++ {
		var v int
		if m == modeHotAlloc {
			v = r.Intn(n)
		} else {
			if batchPos == proposalBatchSize {
				for j := range batch {
					batch[j] = int32(prop.Intn(n))
				}
				batchPos = 0
			}
			v = int(batch[batchPos])
			batchPos++
		}
		from := p.Part(v)
		if p.PartSize(from) <= 1 {
			continue
		}
		var to int
		switch m {
		case modeHotAlloc:
			to = allocScanTarget(p, v)
		case modeHotArgmin:
			to = p.MinInternalPart(from)
		default: // cold
			to = chooseTarget(p, v, t, tMax, s, r)
		}
		if to < 0 || to == from {
			continue
		}
		vw := 1.0
		if !unitVW {
			vw = g.VertexWeight(v)
		}
		if p.PartVertexWeight(to)+vw > maxPartVW {
			continue
		}
		var delta float64
		if m == modeHotAlloc {
			// Frozen delta replica: never arms the connection cache, so
			// the Apply below pays the pre-ISSUE-6 two-scan commit.
			delta = fullMoveDelta(tr, objective.MCut, eps, v, from, to)
		} else {
			delta = tr.MoveDelta(v, from, to)
		}
		accept := delta <= 0
		if !accept {
			u := prop.Float64()
			if m == modeHotAlloc {
				u = r.Float64() // frozen replica keeps the math/rand draw
			}
			accept = u < boltzmann(-delta, invT)
		}
		if accept {
			tr.Apply(v, to)
			accepted++
		}
	}
	return accepted
}

// modeSpec names a proposalBurst mode and the temperature it runs at.
type modeSpec struct {
	mode string
	temp float64
}

// measureModes times `steps` proposals per mode, `reps` rounds, and returns
// the best steps/s per mode. The rounds interleave the modes — every mode
// runs once before any runs again — so a machine-load drift during the
// measurement biases all modes alike instead of whichever happened to run in
// the slow window; the speedup ratios stay trustworthy on a shared box.
func measureModes(tb testing.TB, g *graph.Graph, assign []int32, k int, tMax, eps, maxPartVW float64, steps, reps int, specs []modeSpec) map[string]float64 {
	tb.Helper()
	best := make(map[string]float64, len(specs))
	for rep := 0; rep < reps; rep++ {
		for _, spec := range specs {
			p, err := partition.FromAssignment(g, assign, k)
			if err != nil {
				tb.Fatal(err)
			}
			tr := score.NewTracker(p, objective.MCut, eps)
			s := &targetScratch{mark: make([]int64, p.Capacity())}
			r := rng.New(3)
			start := time.Now()
			proposalBurst(tr, s, r, tMax, spec.temp, maxPartVW, eps, steps, spec.mode)
			if rate := float64(steps) / time.Since(start).Seconds(); rate > best[spec.mode] {
				best[spec.mode] = rate
			}
		}
	}
	return best
}

func benchSetup(tb testing.TB, n int, radius float64, k int, seed int64) (*graph.Graph, []int32, float64, float64, float64) {
	tb.Helper()
	g := graph.RandomGeometric(n, radius, 1)
	// The acceptance harness measures the cache-native layout the facade
	// feeds the annealer under Options.Relayout: the geometric generator
	// hands out ids uncorrelated with geometry, and the locality relabel is
	// what makes the adjacency and assignment-mirror loads line-dense.
	// Scores are layout-invariant (order package property suite), so the
	// Mcut quality gates are unaffected by measuring in relabeled ids.
	rl, err := graph.Relabel(g, order.Locality(g))
	if err != nil {
		tb.Fatal(err)
	}
	g = rl
	r := rng.New(7)
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		assign[v] = int32(r.Intn(k))
	}
	eps := smoothingEps(g)
	maxPartVW := 2.0 * g.TotalVertexWeight() / float64(k)
	return g, assign, 1.0, eps, maxPartVW
}

func BenchmarkAnnealSteps(b *testing.B) {
	const k = 32
	g, assign, tMax, eps, maxPartVW := benchSetup(b, 2000, 0.04, k, 7)
	for _, mode := range []string{"hot-allocscan", "hot-argmin", "cold"} {
		t := tMax // hot
		if mode == "cold" {
			t = tMax * 0.1
		}
		b.Run(mode, func(b *testing.B) {
			p, err := partition.FromAssignment(g, assign, k)
			if err != nil {
				b.Fatal(err)
			}
			tr := score.NewTracker(p, objective.MCut, eps)
			s := &targetScratch{mark: make([]int64, p.Capacity())}
			r := rng.New(3)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				proposalBurst(tr, s, r, tMax, t, maxPartVW, eps, 1000, mode)
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)*1000/elapsed, "steps/s")
			}
		})
	}
}

// Frozen figures from the BENCH_anneal.json that PR 6 committed, kept so the
// regenerated baseline can state its improvement against a fixed reference
// instead of a file it just overwrote. prevCommittedAllocScan is the frozen
// pre-optimization replica rate PR 6's document named as "the benchmark
// baseline"; prevCommittedArgmin is what PR 6's optimized path measured on
// the same box. The cache-native-layout gate is
// hot_argmin >= 1.5 * prevCommittedAllocScan.
const (
	prevCommittedAllocScan = 2314628.412216525
	prevCommittedArgmin    = 7372728.2780993115
)

// Pre-regeneration solution-quality floors: best Mcut of
// anneal.Partition(RandomGeometric(10000, 0.02, 1), 32, {Seed: s, MaxSteps:
// 200000, Budget: 1h}) for seeds 1..5, measured with the committed code
// *before* the fastexp/invT golden regeneration. Step-capped serial runs
// are deterministic, so these are exact values, not means over repetitions.
// The regenerated baseline must match or beat every one of them: the
// relaxed acceptance stream is not allowed to buy speed with quality.
var qualityPreRegen = []float64{
	1.655855882982, // seed 1
	1.712805923471, // seed 2
	1.612889768367, // seed 3
	1.526388708839, // seed 4
	1.688516571275, // seed 5
}

const (
	qualitySteps = 200_000
	qualitySeeds = 5
)

// annealQuality is the per-seed solution-quality block of the committed
// baseline. The runs execute on the generator's raw vertex numbering (no
// relayout): the floors were recorded there, and scores are layout-invariant
// anyway, so the comparison is apples to apples.
type annealQuality struct {
	Graph        string    `json:"graph"`
	K            int       `json:"k"`
	Steps        int       `json:"steps"`
	Seeds        []int64   `json:"seeds"`
	Mcut         []float64 `json:"mcut_per_seed"`
	McutPreRegen []float64 `json:"mcut_per_seed_pre_regen"`
}

// annealBaseline is the committed BENCH_anneal.json document.
type annealBaseline struct {
	Graph             string        `json:"graph"`
	K                 int           `json:"k"`
	Note              string        `json:"note"`
	Steps             int           `json:"steps"`
	HotOldStepsPerS   float64       `json:"hot_allocscan_steps_per_s"`
	HotNewStepsPerS   float64       `json:"hot_argmin_steps_per_s"`
	HotSpeedup        float64       `json:"hot_speedup"`
	PrevAllocScan     float64       `json:"prev_committed_allocscan_steps_per_s"`
	PrevArgmin        float64       `json:"prev_committed_argmin_steps_per_s"`
	SpeedupVsPrevBase float64       `json:"hot_argmin_vs_prev_committed_allocscan"`
	ColdStepsPerS     float64       `json:"cold_steps_per_s"`
	PartitionStepsPS  float64       `json:"partition_steps_per_s"`
	AllocsPerStep     float64       `json:"allocs_per_step"`
	Quality           annealQuality `json:"quality"`
}

// TestWriteAnnealBaseline regenerates BENCH_anneal.json on the acceptance
// instance and enforces both acceptance criteria: the ISSUE-6 throughput
// gate (hot-phase proposals at least 3x faster through the incremental
// argmin, zero allocations per proposal) and the cache-native-layout gates
// (hot_argmin at least 1.5x the PR 6 committed frozen-replica rate, and the
// per-seed Mcut floors of the pre-regeneration code at an equal step cap).
func TestWriteAnnealBaseline(t *testing.T) {
	if os.Getenv("BENCH_ANNEAL_BASELINE") == "" {
		t.Skip("set BENCH_ANNEAL_BASELINE=1 to regenerate BENCH_anneal.json")
	}
	const k = 32
	const steps = 200_000
	g, assign, tMax, eps, maxPartVW := benchSetup(t, 10000, 0.02, k, 7)

	rates := measureModes(t, g, assign, k, tMax, eps, maxPartVW, steps, 5,
		[]modeSpec{
			{"hot-allocscan", tMax},
			{"hot-argmin", tMax},
			{"cold", tMax * 0.1},
		})

	doc := annealBaseline{
		Graph: fmt.Sprintf("RandomGeometric(10000, 0.02, seed 1): %d vertices, %d edges",
			g.NumVertices(), g.NumEdges()),
		K:     k,
		Steps: steps,
		Note: "Metropolis proposal loop steps/second on the locality-relabeled layout, " +
			"frozen pre-ISSUE-6 alloc+scan hot-target replica vs the incremental argmin, " +
			"plus the cold-phase draw and the end-to-end anneal.Partition rate; interleaved " +
			"best-of-5 on one core. Acceptance gates: hot_speedup >= 3 with allocs_per_step = 0; " +
			"hot_argmin_steps_per_s >= 1.5x prev_committed_allocscan_steps_per_s (the frozen-replica " +
			"rate the PR 6 document kept as its benchmark baseline, copied here verbatim — " +
			"prev_committed_argmin_steps_per_s is PR 6's optimized rate, recorded for transparency); " +
			"and quality.mcut_per_seed <= quality.mcut_per_seed_pre_regen on every seed " +
			"(deterministic step-capped runs, caller vertex numbering).",
		PrevAllocScan: prevCommittedAllocScan,
		PrevArgmin:    prevCommittedArgmin,
	}
	doc.HotOldStepsPerS = rates["hot-allocscan"]
	doc.HotNewStepsPerS = rates["hot-argmin"]
	doc.HotSpeedup = doc.HotNewStepsPerS / doc.HotOldStepsPerS
	doc.SpeedupVsPrevBase = doc.HotNewStepsPerS / prevCommittedAllocScan
	doc.ColdStepsPerS = rates["cold"]

	// Solution-quality floors: the same end-to-end runs the pre-regeneration
	// figures were recorded from, on the raw (non-relabeled) generator
	// numbering. Deterministic, so one run per seed.
	{
		raw := graph.RandomGeometric(10_000, 0.02, 1)
		doc.Quality = annealQuality{
			Graph:        "RandomGeometric(10000, 0.02, seed 1), caller vertex numbering",
			K:            k,
			Steps:        qualitySteps,
			McutPreRegen: qualityPreRegen,
		}
		for seed := int64(1); seed <= qualitySeeds; seed++ {
			res, err := Partition(raw, k, Options{Seed: seed, MaxSteps: qualitySteps, Budget: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			doc.Quality.Seeds = append(doc.Quality.Seeds, seed)
			doc.Quality.Mcut = append(doc.Quality.Mcut, res.Energy)
			if res.Energy > qualityPreRegen[seed-1] {
				t.Errorf("seed %d: Mcut %.12f worse than pre-regeneration floor %.12f",
					seed, res.Energy, qualityPreRegen[seed-1])
			}
		}
	}

	// End-to-end anneal.Partition on the same instance: percolation
	// initialization plus the real engine-backed loop.
	{
		best := math.Inf(1)
		var res *Result
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			r, err := Partition(g, k, Options{Seed: 1, MaxSteps: steps})
			if err != nil {
				t.Fatal(err)
			}
			if sec := time.Since(start).Seconds(); sec < best {
				best = sec
			}
			res = r
		}
		doc.PartitionStepsPS = float64(res.Steps) / best
	}

	// Allocation gate: a complete hot-phase proposal burst allocates nothing.
	{
		p, err := partition.FromAssignment(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		tr := score.NewTracker(p, objective.MCut, eps)
		s := &targetScratch{mark: make([]int64, p.Capacity())}
		r := rng.New(3)
		p.MinInternalPart(-1) // arm the argmin heap outside the measurement
		allocs := testing.AllocsPerRun(10, func() {
			proposalBurst(tr, s, r, tMax, tMax, maxPartVW, eps, 1000, "hot-argmin")
		})
		doc.AllocsPerStep = allocs / 1000
	}

	t.Logf("hot: allocscan %.0f steps/s, argmin %.0f steps/s, speedup %.2fx (%.2fx vs PR6 committed allocscan, %.2fx vs PR6 committed argmin); cold %.0f steps/s; Partition %.0f steps/s; allocs/step %g",
		doc.HotOldStepsPerS, doc.HotNewStepsPerS, doc.HotSpeedup, doc.SpeedupVsPrevBase,
		doc.HotNewStepsPerS/prevCommittedArgmin, doc.ColdStepsPerS, doc.PartitionStepsPS, doc.AllocsPerStep)
	if doc.HotSpeedup < 3 {
		t.Errorf("hot-path speedup %.2fx < 3x acceptance threshold", doc.HotSpeedup)
	}
	if doc.SpeedupVsPrevBase < 1.5 {
		t.Errorf("hot argmin rate %.0f steps/s is %.2fx the PR 6 committed baseline replica rate %.0f, want >= 1.5x",
			doc.HotNewStepsPerS, doc.SpeedupVsPrevBase, prevCommittedAllocScan)
	}
	if doc.AllocsPerStep != 0 {
		t.Errorf("hot-phase proposals allocate %g per step, want 0", doc.AllocsPerStep)
	}

	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_anneal.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAnnealBenchSmoke is the CI regression gate: on a smoke-sized instance
// it re-measures the alloc+scan-vs-argmin speedup and fails if it fell more
// than 30% below the committed BENCH_anneal.json baseline ratio. The gate
// compares speedup ratios, not absolute steps/second — wall-clock rates are
// machine-dependent, the ratio of the two paths on the same machine is not.
func TestAnnealBenchSmoke(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_anneal.json")
	if err != nil {
		t.Fatalf("missing BENCH_anneal.json baseline (regenerate with BENCH_ANNEAL_BASELINE=1): %v", err)
	}
	var base annealBaseline
	if err := json.Unmarshal(buf, &base); err != nil {
		t.Fatal(err)
	}
	if base.HotSpeedup < 3 {
		t.Errorf("committed baseline hot_speedup %.2fx < 3x acceptance threshold", base.HotSpeedup)
	}
	if base.AllocsPerStep != 0 {
		t.Errorf("committed baseline allocs_per_step %g, want 0", base.AllocsPerStep)
	}
	if base.SpeedupVsPrevBase < 1.5 {
		t.Errorf("committed baseline hot_argmin_vs_prev_committed_allocscan %.2fx < 1.5x acceptance threshold",
			base.SpeedupVsPrevBase)
	}
	// Quality floors: the committed per-seed Mcut values must sit at or below
	// the pre-regeneration figures on every seed (deterministic step-capped
	// runs; the expensive re-measurement happens at regeneration time, the
	// smoke validates the committed document).
	if len(base.Quality.Mcut) != qualitySeeds || len(base.Quality.McutPreRegen) != qualitySeeds {
		t.Errorf("committed baseline quality block has %d/%d seeds, want %d",
			len(base.Quality.Mcut), len(base.Quality.McutPreRegen), qualitySeeds)
	}
	for i := range base.Quality.Mcut {
		if i < len(base.Quality.McutPreRegen) && base.Quality.Mcut[i] > base.Quality.McutPreRegen[i] {
			t.Errorf("committed baseline quality seed %d: Mcut %.12f above pre-regeneration floor %.12f",
				i+1, base.Quality.Mcut[i], base.Quality.McutPreRegen[i])
		}
	}
	if testing.Short() {
		// The timing comparison below is meaningless under -short's usual
		// companions (-race instrumentation distorts both paths unevenly);
		// CI runs the full smoke in a dedicated uninstrumented step.
		t.Skip("skipping timing comparison in -short mode; baseline document validated")
	}

	const k = 32
	const steps = 50_000
	g, assign, tMax, eps, maxPartVW := benchSetup(t, 2000, 0.04, k, 7)
	rates := measureModes(t, g, assign, k, tMax, eps, maxPartVW, steps, 3,
		[]modeSpec{
			{"hot-argmin", tMax},
			{"hot-allocscan", tMax},
		})
	speedup := rates["hot-argmin"] / rates["hot-allocscan"]
	t.Logf("smoke hot-path speedup %.2fx (baseline %.2fx)", speedup, base.HotSpeedup)
	if speedup < 0.7*base.HotSpeedup {
		t.Errorf("hot-path speedup regressed: measured %.2fx < 70%% of committed baseline %.2fx",
			speedup, base.HotSpeedup)
	}
}
