package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/objective"
)

// Variance quantifies a stochastic method's run-to-run spread — the paper
// reports single runs; this harness reports mean, standard deviation and
// extremes over independent seeds, with the runs spread across CPUs.

// VarianceRow aggregates one method's results over the seed set.
type VarianceRow struct {
	Name               string
	Objective          objective.Objective
	Mean, Std          float64
	Min, Max           float64
	Runs               int
	Failed             int
	MeanElapsedSeconds float64
}

// VarianceOptions configures RunVariance.
type VarianceOptions struct {
	// K is the part count (default 32).
	K int
	// Seeds are the independent seeds (default 1..8).
	Seeds []int64
	// Objective that the metaheuristics target and that is reported
	// (default MCut).
	Objective objective.Objective
	// Budget per run (default 1s).
	Budget time.Duration
	// Methods restricts the study to these method ids; nil means the three
	// Table 1 metaheuristics.
	Methods []string
	// Workers caps concurrent runs (default GOMAXPROCS).
	Workers int
	// Parallelism is each run's own portfolio width (<= 1 serial). Total
	// concurrency is Workers x Parallelism; keep the product near the
	// core count.
	Parallelism int
	// Multilevel runs each supporting metaheuristic inside a V-cycle
	// (RunConfig.Multilevel); CoarsenTo is its coarsening cutoff (0 =
	// default).
	Multilevel bool
	CoarsenTo  int
}

// RunVariance runs each selected method once per seed, in parallel, and
// aggregates the objective values.
func RunVariance(g *graph.Graph, opt VarianceOptions) ([]VarianceRow, error) {
	if opt.K == 0 {
		opt.K = 32
	}
	if len(opt.Seeds) == 0 {
		for s := int64(1); s <= 8; s++ {
			opt.Seeds = append(opt.Seeds, s)
		}
	}
	if opt.Budget == 0 {
		opt.Budget = time.Second
	}
	methods := opt.Methods
	if methods == nil {
		methods = []string{"annealing", "ant-colony", "fusion-fission"}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type job struct {
		method string
		seed   int64
	}
	type outcome struct {
		method  string
		value   float64
		seconds float64
		err     error
	}
	jobs := make(chan job)
	results := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				spec, ok := MethodByID(j.method)
				if !ok {
					results <- outcome{method: j.method, err: fmt.Errorf("experiments: unknown method %q", j.method)}
					continue
				}
				start := time.Now()
				res, err := spec.Run(context.Background(), g, opt.K, RunConfig{
					Objective: opt.Objective, Budget: opt.Budget,
					Seed: j.seed, Parallelism: opt.Parallelism,
					Multilevel: opt.Multilevel && spec.Multilevel, CoarsenTo: opt.CoarsenTo,
				})
				if err != nil {
					results <- outcome{method: j.method, err: err}
					continue
				}
				results <- outcome{
					method:  j.method,
					value:   opt.Objective.Evaluate(res.P),
					seconds: time.Since(start).Seconds(),
				}
			}
		}()
	}
	go func() {
		for _, m := range methods {
			for _, s := range opt.Seeds {
				jobs <- job{m, s}
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	acc := make(map[string]*VarianceRow, len(methods))
	values := make(map[string][]float64, len(methods))
	for _, m := range methods {
		acc[m] = &VarianceRow{Name: m, Objective: opt.Objective, Min: math.Inf(1), Max: math.Inf(-1)}
	}
	for out := range results {
		row := acc[out.method]
		if out.err != nil {
			row.Failed++
			continue
		}
		row.Runs++
		row.MeanElapsedSeconds += out.seconds
		values[out.method] = append(values[out.method], out.value)
		if out.value < row.Min {
			row.Min = out.value
		}
		if out.value > row.Max {
			row.Max = out.value
		}
	}
	rows := make([]VarianceRow, 0, len(methods))
	for _, m := range methods {
		row := acc[m]
		vs := values[m]
		if len(vs) > 0 {
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			row.Mean = sum / float64(len(vs))
			ss := 0.0
			for _, v := range vs {
				ss += (v - row.Mean) * (v - row.Mean)
			}
			if len(vs) > 1 {
				row.Std = math.Sqrt(ss / float64(len(vs)-1))
			}
			row.MeanElapsedSeconds /= float64(len(vs))
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Mean < rows[j].Mean })
	return rows, nil
}

// FormatVariance renders the aggregate table.
func FormatVariance(rows []VarianceRow) string {
	var b strings.Builder
	if len(rows) == 0 {
		return "(no rows)\n"
	}
	fmt.Fprintf(&b, "%-24s %12s %10s %10s %10s %6s %8s\n",
		"method", "mean "+rows[0].Objective.String(), "std", "min", "max", "runs", "avg sec")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %12.3f %10.3f %10.3f %10.3f %6d %8.2f\n",
			r.Name, r.Mean, r.Std, r.Min, r.Max, r.Runs, r.MeanElapsedSeconds)
		if r.Failed > 0 {
			fmt.Fprintf(&b, "%-24s %d runs FAILED\n", "", r.Failed)
		}
	}
	return b.String()
}
