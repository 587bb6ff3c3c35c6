package fusionfission

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/airspace"
	"repro/internal/graph"
	"repro/internal/inertial"
	"repro/internal/linear"
	"repro/internal/memetic"
	"repro/internal/multilevel"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/spectral"
)

// Bit-identity oracle for the recursive-split and coarsening-hierarchy
// paths: the Chaco-style classical methods (linear, spectral with both
// eigensolvers, multilevel in all three schemes, inertial), the memetic
// recombination operator and step-capped multilevel facade runs, over five
// graphs and a spread of (k, seed) pairs. Each run is pinned by the SHA-256
// of its assignment and the exact bits of its Mcut (or by its error text),
// so a refactor of any of those paths must leave every output byte-identical.
//
// Regenerate (deliberately!) with:
//
//	ORACLE_UPDATE=1 go test -run TestPartitionOracle .

const partitionOraclePath = "testdata/partition_oracle.json"

type oracleEntry struct {
	SHA256 string `json:"sha256,omitempty"`
	Mcut   string `json:"mcut,omitempty"` // IEEE-754 bits, hex
	Err    string `json:"err,omitempty"`
}

type oracleGraph struct {
	name string
	g    *graph.Graph
	// large graphs run only the sparseSpectral subset of the spectral
	// matrix: a full-graph Lanczos solve there takes seconds.
	large bool
}

// sparseSpectral is the spectral subset pinned on the large graphs: both
// solvers, every arity, KL off and on, one k each.
var sparseSpectral = map[string]int{
	"Lanc/a2/kl=false": 2, "RQI/a2/kl=true": 3, "Lanc/a8/kl=true": 13, "RQI/a4/kl=false": 7,
}

// oracleKSeeds covers every k the oracle pins, each with one of seeds 1-3.
var oracleKSeeds = [][2]int{{2, 1}, {3, 2}, {5, 3}, {6, 1}, {7, 2}, {8, 3}, {13, 1}, {32, 2}}

// oracleWeighted is a 15x15 grid with vertex weights 1-4 and edge weights
// 1-3, so the weight-proportional splits and targets are exercised.
func oracleWeighted() *graph.Graph {
	const side = 15
	b := graph.NewBuilder(side * side)
	for v := 0; v < side*side; v++ {
		b.SetVertexWeight(v, float64(1+(v*7)%4))
		if (v+1)%side != 0 {
			b.AddEdge(v, v+1, float64(1+v%3))
		}
		if v+side < side*side {
			b.AddEdge(v, v+side, float64(1+(v/side)%3))
		}
	}
	return b.MustBuild()
}

// oracleSkewed is a side x side grid whose every seventh vertex weighs 25:
// proportional splits then leave groups with fewer vertices than parts, or
// none at all, which drives the recursion's id reservation.
func oracleSkewed(side int) *graph.Graph {
	b := graph.NewBuilder(side * side)
	for v := 0; v < side*side; v++ {
		if v%7 == 0 {
			b.SetVertexWeight(v, 25)
		}
		if (v+1)%side != 0 {
			b.AddEdge(v, v+1, float64(1+v%3))
		}
		if v+side < side*side {
			b.AddEdge(v, v+side, 1)
		}
	}
	return b.MustBuild()
}

// oracleDisconnected is an 8x8 grid, a 6x10 grid and a 12-vertex path with
// no edges between them.
func oracleDisconnected() *graph.Graph {
	b := graph.NewBuilder(64 + 60 + 12)
	addGrid := func(off, rows, cols int) {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				v := off + r*cols + c
				if c+1 < cols {
					b.AddEdge(v, v+1, 1)
				}
				if r+1 < rows {
					b.AddEdge(v, v+cols, 1)
				}
			}
		}
	}
	addGrid(0, 8, 8)
	addGrid(64, 6, 10)
	addGrid(124, 1, 12)
	return b.MustBuild()
}

// oracleRuns lists every pinned run by name; under short only the first
// graph, the smallest, is covered.
func oracleRuns(t *testing.T, short bool) map[string]func() ([]int32, float64, error) {
	air, meta, err := airspace.Generate(airspace.Default())
	if err != nil {
		t.Fatal(err)
	}
	graphs := []oracleGraph{
		{"skewed8", oracleSkewed(8), false},
		{"grid20", graph.Grid2D(20, 20), false},
		{"airspace", air, true},
		{"rg800", graph.RandomGeometric(800, 0.07, 3), true},
		{"weighted", oracleWeighted(), false},
		{"disconnected", oracleDisconnected(), false},
		{"skewed6", oracleSkewed(6), false},
	}
	if short {
		graphs = graphs[:1]
	}
	ctx := context.Background()
	fromP := func(p *partition.P, err error) ([]int32, float64, error) {
		if err != nil {
			return nil, 0, err
		}
		return p.Assignment(), objective.MCut.Evaluate(p), nil
	}
	runs := make(map[string]func() ([]int32, float64, error))
	for _, og := range graphs {
		g := og.g
		for _, ks := range oracleKSeeds {
			k, seed := ks[0], int64(ks[1])
			tag := fmt.Sprintf("%s/k%d/s%d", og.name, k, seed)
			for _, arity := range []int{2, 8} {
				for _, kl := range []bool{false, true} {
					opt := linear.Options{Arity: arity, KL: kl}
					runs[fmt.Sprintf("linear/a%d/kl=%t/%s", arity, kl, tag)] = func() ([]int32, float64, error) {
						return fromP(linear.PartitionContext(ctx, g, k, opt))
					}
				}
			}
			for _, solver := range []spectral.Solver{spectral.Lanczos, spectral.RQI} {
				for _, arity := range []int{2, 4, 8} {
					for _, kl := range []bool{false, true} {
						cfg := fmt.Sprintf("%s/a%d/kl=%t", solver, arity, kl)
						if og.large && sparseSpectral[cfg] != k {
							continue
						}
						opt := spectral.Options{Solver: solver, Arity: arity, KL: kl, Seed: seed}
						runs[fmt.Sprintf("spectral/%s/%s", cfg, tag)] = func() ([]int32, float64, error) {
							return fromP(spectral.PartitionContext(ctx, g, k, opt))
						}
					}
				}
			}
			for _, off := range []bool{false, true} {
				for _, arity := range []int{2, 8} {
					opt := multilevel.Options{Arity: arity, DisableRefine: off, Seed: seed}
					runs[fmt.Sprintf("multilevel/a%d/norefine=%t/%s", arity, off, tag)] = func() ([]int32, float64, error) {
						return fromP(multilevel.PartitionContext(ctx, g, k, opt))
					}
				}
				opt := multilevel.Options{DisableRefine: off, Seed: seed}
				runs[fmt.Sprintf("multilevel/kway/norefine=%t/%s", off, tag)] = func() ([]int32, float64, error) {
					return fromP(multilevel.PartitionKWayContext(ctx, g, k, opt))
				}
			}
			for _, coarsenTo := range []int{0, 1} {
				coarsenTo := coarsenTo
				runs[fmt.Sprintf("memetic/coarsento=%d/%s", coarsenTo, tag)] = func() ([]int32, float64, error) {
					pa, err := multilevel.PartitionKWay(g, k, multilevel.Options{Seed: seed})
					if err != nil {
						return nil, 0, err
					}
					pb, err := linear.Partition(g, k, linear.Options{Arity: 8, KL: true})
					if err != nil {
						return nil, 0, err
					}
					return fromP(memetic.Recombine(ctx, g, k, pa.Assignment(), pb.Assignment(), memetic.Options{
						Objective: objective.MCut, CoarsenTo: coarsenTo, Seed: seed,
					}))
				}
			}
			for _, c := range []struct {
				method    string
				coarsenTo int
				memetic   bool
			}{
				{"annealing", 0, false}, {"annealing", 1, false},
				{"fusion-fission", 0, false}, {"fusion-fission", 1, false},
				{"genetic", 0, true},
			} {
				// A genetic step is a whole generation of recombinations.
				steps := 300
				if c.memetic {
					steps = 20
				}
				opt := Options{
					K: k, Method: c.method, Seed: seed, MaxSteps: steps, Budget: time.Hour,
					Multilevel: !c.memetic, MemeticCrossover: c.memetic, CoarsenTo: c.coarsenTo,
				}
				runs[fmt.Sprintf("facade/%s/coarsento=%d/memetic=%t/%s", c.method, c.coarsenTo, c.memetic, tag)] = func() ([]int32, float64, error) {
					res, err := Partition(g, opt)
					if err != nil {
						return nil, 0, err
					}
					return res.Parts, res.Mcut, nil
				}
			}
			if og.name == "airspace" {
				for _, kl := range []bool{false, true} {
					opt := inertial.Options{KL: kl}
					runs[fmt.Sprintf("inertial/kl=%t/%s", kl, tag)] = func() ([]int32, float64, error) {
						return fromP(inertial.Partition(g, meta.X, meta.Y, k, opt))
					}
				}
			}
		}
	}
	return runs
}

func oracleEntryOf(assign []int32, mcut float64, err error) oracleEntry {
	if err != nil {
		return oracleEntry{Err: err.Error()}
	}
	buf := make([]byte, 4*len(assign))
	for i, a := range assign {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(a))
	}
	sum := sha256.Sum256(buf)
	return oracleEntry{
		SHA256: hex.EncodeToString(sum[:]),
		Mcut:   fmt.Sprintf("%016x", math.Float64bits(mcut)),
	}
}

func TestPartitionOracle(t *testing.T) {
	update := os.Getenv("ORACLE_UPDATE") != ""
	runs := oracleRuns(t, testing.Short() && !update)
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)

	if update {
		want := make(map[string]oracleEntry, len(runs))
		for _, name := range names {
			want[name] = oracleEntryOf(runs[name]())
		}
		buf, err := json.MarshalIndent(want, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(partitionOraclePath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d runs", partitionOraclePath, len(want))
		return
	}

	buf, err := os.ReadFile(partitionOraclePath)
	if err != nil {
		t.Fatalf("missing oracle file (run with ORACLE_UPDATE=1 to create): %v", err)
	}
	var want map[string]oracleEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !testing.Short() && len(want) != len(runs) {
		t.Errorf("oracle file has %d runs, the test defines %d; regenerate", len(want), len(runs))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from oracle file; regenerate", name)
			continue
		}
		if got := oracleEntryOf(runs[name]()); got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
}
