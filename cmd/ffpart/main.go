// Command ffpart partitions a graph with any of the seventeen methods of
// the paper's Table 1.
//
// Usage:
//
//	ffpart -graph mesh.graph -k 32 -method fusion-fission -out parts.txt
//	ffpart -gen airspace -k 32 -method multilevel-bi
//	ffpart -gen grid:64x64 -k 8 -method spectral-lanc-bi-kl
//	ffpart -gen geometric:500:0.08 -k 16 -method annealing -budget 5s
//	ffpart -gen geometric:10000:0.02 -k 32 -multilevel -parallelism 4
//	ffpart -gen geometric:10000:0.02 -k 32 -method genetic -memetic -parallelism 4
//
// The output file holds one part id per line, vertex order. With -out
// omitted, only the summary is printed.
//
// Against a running ffserve, the graph store replaces inline submission:
//
//	ffpart -gen geometric:10000:0.02 -upload -server http://localhost:8080
//	ffpart -graph-id ID -server http://localhost:8080 -k 32
//	ffpart -graph-id ID -islands http://h1:8080,http://h2:8080 -k 32
//	ffpart -graph-id ID -server URL -k 32 -warm-start parts.txt
//
// -upload stores the graph and prints its content id; partition requests by
// -graph-id never re-ship the graph. -warm-start seeds the solve with a
// previous partition file (as written by -out) — the incremental
// repartitioning path after POST /v1/graphs/{id}/mutate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	ff "repro"
	"repro/internal/graph"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "input graph in METIS/Chaco format")
		gen       = flag.String("gen", "", "generate input instead: airspace | grid:RxC | torus:RxC | geometric:N:RADIUS | gnp:N:P")
		k         = flag.Int("k", 32, "number of parts")
		method    = flag.String("method", "fusion-fission", "method id; -list shows all")
		obj       = flag.String("objective", "mcut", "objective for metaheuristics: cut | ncut | mcut")
		seed      = flag.Int64("seed", 1, "random seed")
		budget    = flag.Duration("budget", 2*time.Second, "time budget for metaheuristics")
		steps     = flag.Int("steps", 0, "optional step cap for metaheuristics (0 = none)")
		par       = flag.Int("parallelism", 1, "metaheuristic portfolio width (0 = all cores)")
		multi     = flag.Bool("multilevel", false, "run the metaheuristic inside a multilevel V-cycle")
		memetic   = flag.Bool("memetic", false, "genetic method: recombine parents by cut-protecting V-cycle crossover instead of flat crossover")
		coarsenTo = flag.Int("coarsen-to", 0, "V-cycle coarsening cutoff in vertices (0 = default; needs -multilevel or -memetic)")
		out       = flag.String("out", "", "write the partition here (one part id per line)")
		list      = flag.Bool("list", false, "list available methods and exit")
		islands   = flag.String("islands", "", "comma-separated ffserve URLs: fan the job out as a federated island run instead of solving locally")
		timeout   = flag.Duration("timeout", 0, "per-island job timeout for -islands (0 = server default)")
		serverURL = flag.String("server", "", "ffserve URL: run the job on one server instead of solving locally")
		graphID   = flag.String("graph-id", "", "partition a stored graph by content id (needs -server or -islands)")
		upload    = flag.Bool("upload", false, "upload the input graph to -server's store, print its content id, and exit")
		warmFile  = flag.String("warm-start", "", "seed the solve with a partition file (one part id per line, as written by -out); metaheuristics only")
		relayout  = flag.Bool("relayout", false, "renumber the graph with the locality ordering before solving (cache-friendlier hot path; parts map back to input numbering)")
	)
	flag.Parse()

	if *list {
		for _, m := range ff.MethodInfos() {
			fmt.Println(m.ID)
		}
		return
	}

	var g *ff.Graph
	var err error
	if *graphID != "" {
		if *graphPath != "" || *gen != "" {
			fatal(fmt.Errorf("use either -graph/-gen or -graph-id, not both"))
		}
		if *serverURL == "" && *islands == "" {
			fatal(fmt.Errorf("-graph-id names a server-side graph; pass -server or -islands"))
		}
	} else {
		g, err = loadGraph(*graphPath, *gen, *seed)
		if err != nil {
			fatal(err)
		}
	}

	if *upload {
		if *serverURL == "" {
			fatal(fmt.Errorf("-upload needs -server"))
		}
		if g == nil {
			fatal(fmt.Errorf("-upload needs a local graph (-graph or -gen)"))
		}
		up, err := uploadGraph(*serverURL, g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("uploaded: %d vertices, %d edges\nid: %s\n", up.N, up.M, up.ID)
		if !up.Created {
			fmt.Println("(deduplicated: the store already held this graph)")
		}
		return
	}

	parallelism := *par
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	opt := ff.Options{
		K: *k, Method: *method, Objective: *obj,
		Seed: *seed, Budget: *budget, MaxSteps: *steps,
		Parallelism: parallelism,
		Multilevel:  *multi, CoarsenTo: *coarsenTo,
		Relayout: *relayout,

		MemeticCrossover: *memetic,
	}
	if *warmFile != "" {
		warm, err := readPartition(*warmFile)
		if err != nil {
			fatal(err)
		}
		opt.WarmStart = warm
	}

	spec, err := requestSpec(g, *graphID)
	if err != nil {
		fatal(err)
	}

	var res *ff.Result
	var outcomes []islandOutcome
	switch {
	case *islands != "":
		var urls []string
		for _, u := range strings.Split(*islands, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		res, outcomes, err = runIslands(urls, spec, opt, *timeout)
	case *serverURL != "":
		res, err = runRemote(*serverURL, spec, opt, *timeout)
	default:
		res, err = ff.Partition(g, opt)
	}
	if err != nil {
		fatal(err)
	}

	if g != nil {
		fmt.Printf("graph:      %d vertices, %d edges (total weight %.0f)\n",
			g.NumVertices(), g.NumEdges(), g.TotalEdgeWeight())
	} else {
		fmt.Printf("graph:      stored id %s\n", *graphID)
	}
	fmt.Printf("method:     %s (objective %s, seed %d, %d worker(s))\n", res.Method, *obj, *seed, res.Workers)
	fmt.Printf("parts:      %d\n", res.NumParts)
	fmt.Printf("Cut:        %.1f   (paper convention; edge cut = %.1f)\n", res.Cut, res.Cut/2)
	fmt.Printf("Ncut:       %.4f\n", res.Ncut)
	fmt.Printf("Mcut:       %.4f\n", res.Mcut)
	fmt.Printf("imbalance:  %.2f%%\n", res.Imbalance*100)
	fmt.Printf("elapsed:    %s\n", res.Elapsed.Round(time.Millisecond))
	if res.WarmStart {
		fmt.Println("warm-start: seeded and repaired from the previous assignment")
	}
	if h := res.Hierarchy; h != nil {
		fmt.Printf("hierarchy:  %d levels, coarsest %d vertices / %d edges %v\n",
			h.Levels, h.CoarsestVertices, h.CoarsestEdges, h.VertexCounts)
	}
	if outcomes != nil {
		if res.Island != nil {
			fmt.Printf("winner:     island %d\n", *res.Island)
		}
		printIslandSummary(outcomes, *obj)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(f)
		for _, p := range res.Parts {
			fmt.Fprintln(w, p)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("partition written to %s\n", *out)
	}
}

func loadGraph(path, gen string, seed int64) (*ff.Graph, error) {
	switch {
	case path != "" && gen != "":
		return nil, fmt.Errorf("use either -graph or -gen, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ff.ReadMETIS(f)
	case gen != "":
		return generate(gen, seed)
	}
	return nil, fmt.Errorf("no input: pass -graph FILE or -gen SPEC")
}

func generate(spec string, seed int64) (*ff.Graph, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "airspace":
		s := ff.DefaultAirspace()
		s.Seed = seed
		g, _, err := ff.GenerateAirspace(s)
		return g, err
	case "grid", "torus":
		if len(parts) != 2 {
			return nil, fmt.Errorf("want %s:RxC", parts[0])
		}
		dims := strings.Split(parts[1], "x")
		if len(dims) != 2 {
			return nil, fmt.Errorf("want %s:RxC", parts[0])
		}
		r, err1 := strconv.Atoi(dims[0])
		c, err2 := strconv.Atoi(dims[1])
		if err1 != nil || err2 != nil || r < 1 || c < 1 {
			return nil, fmt.Errorf("bad dimensions %q", parts[1])
		}
		if parts[0] == "grid" {
			return graph.Grid2D(r, c), nil
		}
		return graph.Torus2D(r, c), nil
	case "geometric":
		if len(parts) != 3 {
			return nil, fmt.Errorf("want geometric:N:RADIUS")
		}
		n, err1 := strconv.Atoi(parts[1])
		rad, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad geometric spec %q", spec)
		}
		return graph.RandomGeometric(n, rad, seed), nil
	case "gnp":
		if len(parts) != 3 {
			return nil, fmt.Errorf("want gnp:N:P")
		}
		n, err1 := strconv.Atoi(parts[1])
		p, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad gnp spec %q", spec)
		}
		return graph.GNP(n, p, seed), nil
	}
	return nil, fmt.Errorf("unknown generator %q", parts[0])
}

// readPartition reads a warm-start seed in the -out format: one part id per
// line, vertex order.
func readPartition(path string) ([]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var parts []int32
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		p, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %v", path, len(parts)+1, err)
		}
		parts = append(parts, int32(p))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%s: empty partition file", path)
	}
	return parts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ffpart:", err)
	os.Exit(1)
}
