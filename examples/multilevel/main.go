// Multilevel: accelerate a metaheuristic on a large graph with the
// V-cycle, alone and composed with a parallel portfolio, and compare
// against the flat search at the same budget.
//
//	go run ./examples/multilevel
package main

import (
	"fmt"
	"log"
	"time"

	ff "repro"
)

func main() {
	// A large instance: the synthetic airspace workload scaled to ~8000
	// sectors — big enough that a flat metaheuristic spends its whole
	// budget shuffling single vertices.
	spec := ff.DefaultAirspace()
	spec.Sectors, spec.Edges, spec.Flights = 8000, 32000, 120000
	g, _, err := ff.GenerateAirspace(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	base := ff.Options{
		K:      32,
		Method: "fusion-fission",
		Seed:   1,
		Budget: 2 * time.Second,
	}

	// 1. Flat search: the paper's algorithm directly on the input graph.
	flat := run(g, base, "flat")

	// 2. Multilevel V-cycle: coarsen, search the coarsest graph, refine on
	// uncoarsening. Same method, same budget.
	ml := base
	ml.Multilevel = true
	vres := run(g, ml, "multilevel")
	if h := vres.Hierarchy; h != nil {
		fmt.Printf("  hierarchy: %d levels %v, coarsest %d vertices / %d edges\n",
			h.Levels, h.VertexCounts, h.CoarsestVertices, h.CoarsestEdges)
	}

	// 3. Multilevel + portfolio: every worker V-cycles the shared
	// hierarchy from its own seed and the best result wins. (Widths beyond
	// the core count oversubscribe.)
	mlp := ml
	mlp.Parallelism = 2
	pres := run(g, mlp, "multilevel + portfolio(2)")

	fmt.Printf("\nMcut: flat %.4f -> multilevel %.4f -> multilevel+portfolio %.4f\n",
		flat.Mcut, vres.Mcut, pres.Mcut)
}

func run(g *ff.Graph, opt ff.Options, label string) *ff.Result {
	res, err := ff.Partition(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-26s Mcut %.4f  (%d parts, %d worker(s), %s)\n",
		label+":", res.Mcut, res.NumParts, res.Workers, res.Elapsed.Round(time.Millisecond))
	return res
}
