package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/objective"
)

func TestRunVarianceAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three metaheuristics over four seeds; skipped in -short")
	}
	g := smallATC(t)
	rows, err := RunVariance(g, VarianceOptions{
		K:         6,
		Seeds:     []int64{1, 2, 3, 4},
		Objective: objective.MCut,
		Budget:    120 * time.Millisecond,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 metaheuristics", len(rows))
	}
	for _, r := range rows {
		if r.Failed > 0 {
			t.Errorf("%s: %d failed runs", r.Name, r.Failed)
		}
		if r.Runs != 4 {
			t.Errorf("%s: %d runs, want 4", r.Name, r.Runs)
		}
		if math.IsInf(r.Mean, 0) || r.Mean <= 0 {
			t.Errorf("%s: mean %g", r.Name, r.Mean)
		}
		if r.Min > r.Mean || r.Max < r.Mean {
			t.Errorf("%s: min %g mean %g max %g inconsistent", r.Name, r.Min, r.Mean, r.Max)
		}
		if r.Std < 0 {
			t.Errorf("%s: negative std", r.Name)
		}
	}
	// Rows are sorted by mean.
	for i := 1; i < len(rows); i++ {
		if rows[i].Mean < rows[i-1].Mean {
			t.Fatal("rows not sorted by mean")
		}
	}
	text := FormatVariance(rows)
	if !strings.Contains(text, "fusion-fission") || !strings.Contains(text, "mean Mcut") {
		t.Fatalf("format incomplete:\n%s", text)
	}
}

func TestRunVarianceSubsetAndErrors(t *testing.T) {
	g := smallATC(t)
	rows, err := RunVariance(g, VarianceOptions{
		K:       6,
		Seeds:   []int64{1, 2},
		Methods: []string{"percolation"},
		Budget:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Runs != 2 {
		t.Fatalf("subset run wrong: %+v", rows)
	}
	rows, err = RunVariance(g, VarianceOptions{
		K:       6,
		Seeds:   []int64{1},
		Methods: []string{"No Such Method"},
		Budget:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Failed != 1 {
		t.Fatalf("unknown method did not fail: %+v", rows[0])
	}
}

func TestFormatVarianceEmpty(t *testing.T) {
	if got := FormatVariance(nil); !strings.Contains(got, "no rows") {
		t.Fatalf("empty format = %q", got)
	}
}
