package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/vcycle"
)

// Multilevel-vs-flat time-to-quality comparison, the committed
// BENCH_multilevel.json baseline. The claim under test is the ISSUE-4
// acceptance criterion: on a >= 10k-vertex graph, multilevel fusion-fission
// reaches the flat search's mean Mcut (5 seeds) in at most HALF the flat
// wall-clock budget — the V-cycle searches a few-hundred-vertex coarse
// graph where steps are cheap and moves are global, then pays only
// pass-capped refinement sweeps on the way up. Regenerate with:
//
//	BENCH_MULTILEVEL_BASELINE=1 go test -run TestWriteMultilevelBaseline -timeout 60m ./internal/experiments/
//
// BenchmarkMultilevelVsFlat below is the CI smoke-sized (step-capped,
// seconds-long) version of the same measurement.

func multilevelSolve(tb testing.TB, g *graph.Graph, k int, cfg RunConfig) (float64, *vcycle.Stats) {
	tb.Helper()
	res, err := mustMethod(tb, "fusion-fission").Run(context.Background(), g, k, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return objective.MCut.Evaluate(res.P), res.Hierarchy
}

// BenchmarkMultilevelVsFlat reports flat and multilevel Mcut at an equal
// step cap on a small instance; -benchtime 1x keeps it smoke-test sized.
func BenchmarkMultilevelVsFlat(b *testing.B) {
	g := graph.RandomGeometric(2000, 0.04, 1)
	const k = 16
	const steps = 1500
	var flat, ml float64
	for i := 0; i < b.N; i++ {
		flat, _ = multilevelSolve(b, g, k, RunConfig{Objective: objective.MCut, MaxSteps: steps, Seed: 1})
		ml, _ = multilevelSolve(b, g, k, RunConfig{Objective: objective.MCut, MaxSteps: steps, Seed: 1, Multilevel: true})
	}
	b.ReportMetric(flat, "mcut_flat")
	b.ReportMetric(ml, "mcut_multilevel")
}

// multilevelBaseline is the committed BENCH_multilevel.json document.
type multilevelBaseline struct {
	Graph            string        `json:"graph"`
	K                int           `json:"k"`
	Seeds            []int64       `json:"seeds"`
	Note             string        `json:"note"`
	FlatBudget       string        `json:"flat_budget"`
	MultilevelBudget string        `json:"multilevel_budget"`
	FlatMcut         []float64     `json:"flat_mcut"`
	FlatMean         float64       `json:"flat_mean"`
	MultilevelMcut   []float64     `json:"multilevel_mcut"`
	MultilevelMean   float64       `json:"multilevel_mean"`
	Hierarchy        *vcycle.Stats `json:"hierarchy"`
	Compose          composeRecord `json:"portfolio_compose"`
}

// composeRecord documents that Parallelism > 1 composes with Multilevel
// deterministically under step caps.
type composeRecord struct {
	Parallelism   int     `json:"parallelism"`
	MaxSteps      int     `json:"max_steps"`
	Deterministic bool    `json:"deterministic"`
	Mcut          float64 `json:"mcut"`
}

func TestWriteMultilevelBaseline(t *testing.T) {
	if os.Getenv("BENCH_MULTILEVEL_BASELINE") == "" {
		t.Skip("set BENCH_MULTILEVEL_BASELINE=1 to regenerate BENCH_multilevel.json")
	}
	g := graph.RandomGeometric(10000, 0.02, 1)
	const k = 32
	flatBudget := 4 * time.Second
	mlBudget := flatBudget / 2

	doc := multilevelBaseline{
		Graph:            fmt.Sprintf("RandomGeometric(10000, 0.02, seed 1): %d vertices, %d edges", g.NumVertices(), g.NumEdges()),
		K:                k,
		FlatBudget:       flatBudget.String(),
		MultilevelBudget: mlBudget.String(),
		Note: "time-to-quality: multilevel fusion-fission at HALF the flat budget must reach the " +
			"flat search's mean Mcut over the seed set; portfolio_compose records that " +
			"parallelism and multilevel together are step-cap deterministic",
	}
	var flatSum, mlSum float64
	for s := int64(1); s <= 5; s++ {
		doc.Seeds = append(doc.Seeds, s)
		flat, _ := multilevelSolve(t, g, k, RunConfig{Objective: objective.MCut, Budget: flatBudget, MaxSteps: 1 << 30, Seed: s})
		ml, h := multilevelSolve(t, g, k, RunConfig{Objective: objective.MCut, Budget: mlBudget, MaxSteps: 1 << 30, Seed: s, Multilevel: true})
		doc.FlatMcut = append(doc.FlatMcut, flat)
		doc.MultilevelMcut = append(doc.MultilevelMcut, ml)
		flatSum += flat
		mlSum += ml
		doc.Hierarchy = h
		t.Logf("seed %d: flat(%.1fs)=%.4f multilevel(%.1fs)=%.4f", s, flatBudget.Seconds(), flat, mlBudget.Seconds(), ml)
	}
	doc.FlatMean = flatSum / 5
	doc.MultilevelMean = mlSum / 5
	if doc.MultilevelMean > doc.FlatMean {
		t.Errorf("multilevel mean %.4f at half budget did not reach flat mean %.4f", doc.MultilevelMean, doc.FlatMean)
	}

	// Determinism of the multilevel portfolio under a step cap.
	spec := mustMethod(t, "fusion-fission")
	compose := func() ([]int32, float64) {
		res, err := spec.Run(context.Background(), g, k, RunConfig{
			Objective: objective.MCut, MaxSteps: 2000, Seed: 1,
			Parallelism: 4, Multilevel: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.P.Compact(), objective.MCut.Evaluate(res.P)
	}
	a, mcut := compose()
	b, _ := compose()
	doc.Compose = composeRecord{Parallelism: 4, MaxSteps: 2000, Deterministic: reflect.DeepEqual(a, b), Mcut: mcut}
	if !doc.Compose.Deterministic {
		t.Error("multilevel portfolio not deterministic under step cap")
	}

	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_multilevel.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("flat mean %.4f (%s) vs multilevel mean %.4f (%s)", doc.FlatMean, flatBudget, doc.MultilevelMean, mlBudget)
}
