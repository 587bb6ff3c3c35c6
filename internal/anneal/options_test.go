package anneal

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/score"
)

// TestOptionsWithDefaults pins the zero-value contract: a zero MaxSteps
// selects the documented default, and an explicit value passes through.
func TestOptionsWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		want int
	}{
		{name: "zero value selects defaults", in: Options{}, want: 200_000},
		{name: "explicit settings pass through", in: Options{MaxSteps: 10}, want: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.withDefaults().MaxSteps; got != tc.want {
				t.Errorf("MaxSteps = %v, want %v", got, tc.want)
			}
		})
	}
}

// componentPartition builds two disconnected triangles split by component —
// every probe move crosses no edge boundary inside its own component, so
// autoTemperature finds no positive delta and must take the fallback path.
func componentPartition(t *testing.T, edgeWeight float64) (*graph.Graph, *partition.P) {
	t.Helper()
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1], edgeWeight)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.FromAssignment(g, []int32{0, 0, 0, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

// TestAutoTemperatureFallbackScales is the regression test for the
// scale-blind fallback: the old code returned the literal 1.0 whenever no
// probe produced a positive delta, regardless of whether the objective's
// deltas are ~1e3 (Cut on heavy edges) or ~1e-2 (Ncut). The derived fallback
// must track the objective scale instead.
func TestAutoTemperatureFallbackScales(t *testing.T) {
	temp := func(obj objective.Objective, edgeWeight float64) float64 {
		g, p := componentPartition(t, edgeWeight)
		eps := smoothingEps(g)
		tr := score.NewTracker(p, obj, eps)
		return autoTemperature(tr, obj, eps, rng.New(5))
	}

	// Edge weight 3, not 1: on this graph the derived Cut fallback at unit
	// weight is half the mean weighted degree = 1.0, indistinguishable from
	// the old scale-blind literal.
	cutLight := temp(objective.Cut, 3)
	cutHeavy := temp(objective.Cut, 3000)
	ncut := temp(objective.NCut, 3)

	for name, v := range map[string]float64{"cut/3": cutLight, "cut/3000": cutHeavy, "ncut": ncut} {
		if !(v > 0) {
			t.Fatalf("fallback temperature %s = %v, want > 0", name, v)
		}
		if v == 1.0 {
			t.Errorf("fallback temperature %s is the scale-blind literal 1.0", name)
		}
	}
	// Cut deltas scale linearly with edge weight; the fallback must follow.
	if ratio := cutHeavy / cutLight; ratio < 100 {
		t.Errorf("Cut fallback grew only %.1fx for 1000x heavier edges", ratio)
	}
	// Ncut terms are normalized by volume, so its temperature must sit far
	// below Cut's on the same graph.
	if ncut >= cutLight {
		t.Errorf("Ncut fallback %v >= Cut fallback %v; not tracking objective scale", ncut, cutLight)
	}
}

// TestProposalLoopAllocFree is the ISSUE-6 allocation regression gate:
// both the hot-phase (argmin-targeted) and cold-phase (random-connected)
// proposal bursts must run without a single heap allocation per step.
func TestProposalLoopAllocFree(t *testing.T) {
	const k = 32
	g, assign, tMax, eps, maxPartVW := benchSetup(t, 2000, 0.04, k, 7)
	for _, mode := range []string{"hot-argmin", "cold"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			p, err := partition.FromAssignment(g, assign, k)
			if err != nil {
				t.Fatal(err)
			}
			tr := score.NewTracker(p, objective.MCut, eps)
			s := &targetScratch{mark: make([]int64, p.Capacity())}
			r := rng.New(3)
			temp := tMax
			if mode == "cold" {
				temp = tMax * 0.1
			}
			// Warm-up lets the cold branch grow its candidate scratch once.
			proposalBurst(tr, s, r, tMax, temp, maxPartVW, eps, 2_000, mode)
			allocs := testing.AllocsPerRun(10, func() {
				proposalBurst(tr, s, r, tMax, temp, maxPartVW, eps, 2_000, mode)
			})
			if allocs != 0 {
				t.Fatalf("%s proposal burst allocates %.2f times per 2000 steps, want 0", mode, allocs)
			}
		})
	}
}
