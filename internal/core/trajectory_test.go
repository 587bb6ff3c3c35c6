package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/airspace"
	"repro/internal/graph"
	"repro/internal/objective"
)

// The trajectory oracle pins fusion-fission runs bit for bit. Each entry of
// testdata/core_trajectories.json fingerprints one run of the matrix
// {airspace k=32, Grid2D(20,20) k=8, RandomGeometric(800,0.07,3) k=16} x
// {Mcut, Ncut, Cut} x {300, 600, 1500} steps x seeds 1-12: a hash of the
// Best assignment (raw part slots), the Energy bits, a hash of the BestPerK
// bits, and the step count. The file was recorded from the event loop as it
// stood before the allocation-free rewrite, with only the bestMergePair
// tie-break made deterministic, so any change of trajectory, however small,
// fails here. Entries recorded at Energy = +Inf were runs the search ended
// on a zero-internal part; the Mcut repair changes them on purpose, and for
// those the test only asks for a finite Energy.

const trajectoryFile = "testdata/core_trajectories.json"

type trajCase struct {
	Graph     string `json:"graph"`
	K         int    `json:"k"`
	Objective string `json:"objective"`
	MaxSteps  int    `json:"max_steps"`
	Seed      int64  `json:"seed"`
}

type trajEntry struct {
	trajCase
	Best     string `json:"best"`
	Energy   string `json:"energy"`
	BestPerK string `json:"best_per_k"`
	Steps    int    `json:"steps"`
}

// trajGraphs returns the matrix's instances with their target part counts.
func trajGraphs(t testing.TB) []struct {
	name string
	g    *graph.Graph
	k    int
} {
	t.Helper()
	air, _, err := airspace.Generate(airspace.Default())
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"airspace", air, 32},
		{"grid20x20", graph.Grid2D(20, 20), 8},
		{"rg800", graph.RandomGeometric(800, 0.07, 3), 16},
	}
}

func fingerprint(c trajCase, res *Result) trajEntry {
	h := sha256.New()
	for _, a := range res.Best.Assignment() {
		binary.Write(h, binary.LittleEndian, a)
	}
	ks := make([]int, 0, len(res.BestPerK))
	for k := range res.BestPerK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	hk := sha256.New()
	for _, k := range ks {
		binary.Write(hk, binary.LittleEndian, int64(k))
		binary.Write(hk, binary.LittleEndian, math.Float64bits(res.BestPerK[k]))
	}
	return trajEntry{
		trajCase: c,
		Best:     hex.EncodeToString(h.Sum(nil)),
		Energy:   fmt.Sprintf("%016x", math.Float64bits(res.Energy)),
		BestPerK: hex.EncodeToString(hk.Sum(nil)),
		Steps:    res.Steps,
	}
}

// runTrajectories runs every matrix case whose seed is at most maxSeed.
func runTrajectories(t testing.TB, maxSeed int64, visit func(trajEntry)) {
	for _, inst := range trajGraphs(t) {
		for _, obj := range []objective.Objective{objective.MCut, objective.NCut, objective.Cut} {
			for _, steps := range []int{300, 600, 1500} {
				for seed := int64(1); seed <= maxSeed; seed++ {
					c := trajCase{Graph: inst.name, K: inst.k, Objective: obj.String(), MaxSteps: steps, Seed: seed}
					res, err := Partition(inst.g, inst.k, Options{Objective: obj, MaxSteps: steps, Seed: seed})
					if err != nil {
						t.Fatalf("%+v: %v", c, err)
					}
					visit(fingerprint(c, res))
				}
			}
		}
	}
}

func TestTrajectoryOracle(t *testing.T) {
	data, err := os.ReadFile(trajectoryFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []trajEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byCase := make(map[trajCase]trajEntry, len(want))
	for _, e := range want {
		byCase[e.trajCase] = e
	}
	maxSeed := int64(12)
	if testing.Short() {
		maxSeed = 3
	}
	infBits := fmt.Sprintf("%016x", math.Float64bits(math.Inf(1)))
	ran := 0
	runTrajectories(t, maxSeed, func(got trajEntry) {
		ran++
		w, ok := byCase[got.trajCase]
		if !ok {
			t.Errorf("%+v: no recorded entry", got.trajCase)
			return
		}
		if w.Energy == infBits {
			if got.Energy == infBits {
				t.Errorf("%+v: Energy still +Inf", got.trajCase)
			}
			return
		}
		if got != w {
			t.Errorf("%+v: trajectory changed\n got %+v\nwant %+v", got.trajCase, got, w)
		}
	})
	if want := 3 * 3 * 3 * int(maxSeed); ran != want {
		t.Fatalf("ran %d cases, want %d", ran, want)
	}
}
