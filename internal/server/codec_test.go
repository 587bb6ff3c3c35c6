package server

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	ff "repro"
	"repro/internal/graph"
)

func mustDecode(t *testing.T, spec GraphSpec) *graph.Graph {
	t.Helper()
	g, err := decodeGraph(spec, graph.MaxVertices)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphDigestCanonical(t *testing.T) {
	ringEdges := GraphSpec{N: 4, Edges: [][]float64{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}
	scrambled := GraphSpec{N: 4, Edges: [][]float64{{3, 0}, {2, 3}, {0, 1}, {1, 2}}}
	metis := GraphSpec{METIS: "4 4\n2 4\n1 3\n2 4\n3 1\n"}

	d1 := graphDigest(mustDecode(t, ringEdges))
	d2 := graphDigest(mustDecode(t, scrambled))
	d3 := graphDigest(mustDecode(t, metis))
	if d1 != d2 || d1 != d3 {
		t.Fatalf("same graph, different digests: %s %s %s", d1, d2, d3)
	}

	// Any content change must move the digest.
	weighted := GraphSpec{N: 4, Edges: [][]float64{{0, 1, 2}, {1, 2}, {2, 3}, {3, 0}}}
	if graphDigest(mustDecode(t, weighted)) == d1 {
		t.Fatal("edge weight ignored by digest")
	}
	vertexW := ringEdges
	vertexW.VertexWeights = []float64{2, 1, 1, 1}
	if graphDigest(mustDecode(t, vertexW)) == d1 {
		t.Fatal("vertex weight ignored by digest")
	}
	bigger := GraphSpec{N: 5, Edges: [][]float64{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}
	if graphDigest(mustDecode(t, bigger)) == d1 {
		t.Fatal("vertex count ignored by digest")
	}
}

func TestCacheKeySeparatesOptions(t *testing.T) {
	g := mustDecode(t, GraphSpec{N: 4, Edges: [][]float64{{0, 1}, {1, 2}, {2, 3}, {3, 0}}})
	d := graphDigest(g)
	base := ff.Options{K: 2, Method: "fusion-fission", Objective: "mcut", Seed: 1, Budget: time.Second}
	keys := map[string]bool{cacheKey(d, base): true}
	for _, v := range []ff.Options{
		{K: 3, Method: "fusion-fission", Objective: "mcut", Seed: 1, Budget: time.Second},
		{K: 2, Method: "annealing", Objective: "mcut", Seed: 1, Budget: time.Second},
		{K: 2, Method: "fusion-fission", Objective: "cut", Seed: 1, Budget: time.Second},
		{K: 2, Method: "fusion-fission", Objective: "mcut", Seed: 2, Budget: time.Second},
		{K: 2, Method: "fusion-fission", Objective: "mcut", Seed: 1, Budget: 2 * time.Second},
		{K: 2, Method: "fusion-fission", Objective: "mcut", Seed: 1, Budget: time.Second, MaxSteps: 5},
		{K: 2, Method: "fusion-fission", Objective: "mcut", Seed: 1, Budget: time.Second, MaxSteps: 5, Parallelism: 4},
		{K: 2, Method: "fusion-fission", Objective: "mcut", Seed: 1, Budget: time.Second, Multilevel: true},
		{K: 2, Method: "fusion-fission", Objective: "mcut", Seed: 1, Budget: time.Second, Multilevel: true, CoarsenTo: 64},
		{K: 2, Method: "fusion-fission", Objective: "mcut", Seed: 1, Budget: time.Second, Relayout: true},
	} {
		k := cacheKey(d, v)
		if keys[k] {
			t.Fatalf("option change did not change key: %+v", v)
		}
		keys[k] = true
	}
	// Relayout is part of the federation identity too: islands exchanging
	// candidates must agree on the vertex numbering those candidates use.
	if exchangeKey(d, base) == exchangeKey(d, ff.Options{K: 2, Method: "fusion-fission", Objective: "mcut", Seed: 1, Budget: time.Second, Relayout: true}) {
		t.Fatal("relayout ignored by exchangeKey")
	}
}

func TestRequestOptionsNormalizeAndClamp(t *testing.T) {
	r := PartitionRequest{K: 2}
	opt, err := r.options(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Method != "fusion-fission" || opt.Objective != "mcut" || opt.Budget != 2*time.Second {
		t.Fatalf("defaults not applied: %+v", opt)
	}

	r = PartitionRequest{K: 2, Budget: "10s"}
	opt, err = r.options(3*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Budget != 3*time.Second {
		t.Fatalf("budget not clamped: %v", opt.Budget)
	}

	if _, err := (&PartitionRequest{K: 0}).options(0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := (&PartitionRequest{K: 2, Budget: "0s"}).options(0, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := (&PartitionRequest{K: 2, Parallelism: -1}).options(0, 0); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	if _, err := (&PartitionRequest{K: 2, MaxSteps: -5}).options(0, 0); err == nil {
		t.Fatal("negative max_steps accepted")
	}

	r = PartitionRequest{K: 2, Parallelism: 64}
	opt, err = r.options(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Parallelism != 4 {
		t.Fatalf("parallelism not clamped: %d", opt.Parallelism)
	}

	// V-cycle fields pass through on supporting methods and normalize away
	// on the rest, so equivalent requests share one cache key.
	r = PartitionRequest{K: 2, Multilevel: true, CoarsenTo: 64}
	opt, err = r.options(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Multilevel || opt.CoarsenTo != 64 {
		t.Fatalf("multilevel fields dropped: %+v", opt)
	}
	r = PartitionRequest{K: 2, Method: "multilevel-bi", Multilevel: true, CoarsenTo: 64}
	opt, err = r.options(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Multilevel || opt.CoarsenTo != 0 {
		t.Fatalf("multilevel fields kept on a classical method: %+v", opt)
	}
	if _, err := (&PartitionRequest{K: 2, CoarsenTo: -5}).options(0, 0); err == nil {
		t.Fatal("negative coarsen_to accepted")
	}
}

func TestLRUEvictionAndStats(t *testing.T) {
	c := newResultCache(2)
	r := func(m string) *ff.Result { return &ff.Result{Method: m} }
	c.add("a", r("a"))
	c.add("b", r("b"))
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.add("c", r("c")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	st := c.stats()
	if st.Size != 2 || st.Capacity != 2 || st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Updating an existing key must not grow the cache.
	c.add("c", r("c2"))
	if got, _ := c.get("c"); got.Method != "c2" || c.len() != 2 {
		t.Fatalf("update in place failed: %+v len %d", got, c.len())
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newResultCache(0)
	c.add("a", &ff.Result{})
	if _, ok := c.get("a"); ok || c.len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestDecodeGraphErrors(t *testing.T) {
	for name, spec := range map[string]GraphSpec{
		"empty":        {},
		"both":         {METIS: "1 0\n\n", N: 1},
		"zero n":       {Edges: [][]float64{{0, 1}}},
		"bad metis":    {METIS: "not a graph"},
		"weight len":   {N: 2, Edges: [][]float64{{0, 1}}, VertexWeights: []float64{1, 2, 3}},
		"negative vw":  {N: 2, Edges: [][]float64{{0, 1}}, VertexWeights: []float64{-1, 1}},
		"fractional":   {N: 2, Edges: [][]float64{{0.5, 1}}},
		"arity":        {N: 2, Edges: [][]float64{{0, 1, 1, 1}}},
		"self loop":    {N: 2, Edges: [][]float64{{1, 1}}},
		"out of range": {N: 2, Edges: [][]float64{{0, 2}}},
		"negative idx": {N: 2, Edges: [][]float64{{-1, 1}}},
		"huge n":       {N: 2000000000, Edges: [][]float64{}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeGraph(spec, 1<<20); err == nil {
				t.Fatalf("spec %+v accepted", spec)
			} else if !strings.Contains(err.Error(), "graph") {
				t.Fatalf("unhelpful error: %v", err)
			}
		})
	}
	// However large the caller's bound, n stays within int32 CSR indices.
	if _, err := decodeGraph(GraphSpec{N: 1 << 31}, math.MaxInt64); err == nil || !strings.HasPrefix(err.Error(), "graph: ") {
		t.Fatalf("n = 2^31 accepted or unhelpful error: %v", err)
	}
}

// optionKeyFields classifies every ff.Options field by the server key it
// belongs to — cacheKey (result identity), exchangeKey (island pairing
// identity), or neither — and says how to flip it away from the base value
// in TestOptionKeysCoverEveryField. A new Options field fails that test
// until it is classified here, so no option can silently collide cache
// entries or pair unrelated federated jobs.
var optionKeyFields = map[string]struct {
	cache, exchange bool
	flip            func(*ff.Options)
}{
	"K":                {true, true, func(o *ff.Options) { o.K++ }},
	"Method":           {true, true, func(o *ff.Options) { o.Method = "annealing" }},
	"Objective":        {true, true, func(o *ff.Options) { o.Objective = "cut" }},
	"Seed":             {true, true, func(o *ff.Options) { o.Seed++ }},
	"Budget":           {true, false, func(o *ff.Options) { o.Budget += time.Millisecond }},
	"MaxSteps":         {true, true, func(o *ff.Options) { o.MaxSteps++ }},
	"Parallelism":      {true, false, func(o *ff.Options) { o.Parallelism++ }},
	"Multilevel":       {true, true, func(o *ff.Options) { o.Multilevel = !o.Multilevel }},
	"MemeticCrossover": {true, true, func(o *ff.Options) { o.MemeticCrossover = !o.MemeticCrossover }},
	"CoarsenTo":        {true, true, func(o *ff.Options) { o.CoarsenTo++ }},
	"WarmStart":        {true, true, func(o *ff.Options) { o.WarmStart = []int32{0, 1, 1, 0} }},
	"Relayout":         {true, true, func(o *ff.Options) { o.Relayout = !o.Relayout }},
	// Island only offsets seed derivation inside one fleet member; Exchange
	// is the transport itself. Neither names a different computation.
	"Island":   {false, false, func(o *ff.Options) { o.Island++ }},
	"Exchange": {false, false, func(o *ff.Options) { o.Exchange = &islandRelay{} }},
}

func TestOptionKeysCoverEveryField(t *testing.T) {
	const d = "digest"
	base := ff.Options{K: 2, Method: "fusion-fission", Objective: "mcut", Seed: 1, Budget: time.Second, Parallelism: 1}
	typ := reflect.TypeOf(base)
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		class, ok := optionKeyFields[name]
		if !ok {
			t.Errorf("ff.Options.%s is not classified in optionKeyFields", name)
			continue
		}
		v := base
		class.flip(&v)
		if reflect.DeepEqual(v, base) {
			t.Errorf("%s: flip left the options unchanged", name)
		}
		if got := cacheKey(d, v) != cacheKey(d, base); got != class.cache {
			t.Errorf("%s: cacheKey changed = %v, want %v", name, got, class.cache)
		}
		if got := exchangeKey(d, v) != exchangeKey(d, base); got != class.exchange {
			t.Errorf("%s: exchangeKey changed = %v, want %v", name, got, class.exchange)
		}
	}
	for name := range optionKeyFields {
		if !seen[name] {
			t.Errorf("optionKeyFields names %s, which ff.Options does not have", name)
		}
	}
}

// TestOptionKeysPinned pins both key formats byte for byte on a few
// normalized requests. exchangeKey travels between islands, so a format
// change breaks fleets that mix versions; cacheKey changes would silently
// orphan every cached result.
func TestOptionKeysPinned(t *testing.T) {
	const d = "digest"
	for _, c := range []struct {
		name          string
		opt           ff.Options
		cache, exchng string
	}{
		{"cold", ff.Options{K: 4, Seed: 7},
			"digest|fusion-fission|4|mcut|7|2000000000|0|1|0|0|0|0|-",
			"digest|fusion-fission|4|mcut|7|0|0|0|0|0|-"},
		{"warm", ff.Options{K: 2, Method: "annealing", Seed: 3, MaxSteps: 500, Parallelism: 2, WarmStart: []int32{0, 1, 1, 0}},
			"digest|annealing|2|mcut|3|2000000000|500|2|0|0|0|0|8bd2fa7c6873c97e24da3767da43702d",
			"digest|annealing|2|mcut|3|500|0|0|0|0|8bd2fa7c6873c97e24da3767da43702d"},
		{"multilevel", ff.Options{K: 8, Method: "ant-colony", Objective: "ncut", Budget: 500 * time.Millisecond, Multilevel: true, CoarsenTo: 64, Relayout: true},
			"digest|ant-colony|8|ncut|0|500000000|0|1|1|64|0|1|-",
			"digest|ant-colony|8|ncut|0|0|1|64|0|1|-"},
		{"memetic", ff.Options{K: 4, Method: "genetic", Seed: -2, Parallelism: 3, Multilevel: true, MemeticCrossover: true, CoarsenTo: 40},
			"digest|genetic|4|mcut|-2|2000000000|0|3|0|40|1|0|-",
			"digest|genetic|4|mcut|-2|0|0|40|1|0|-"},
	} {
		opt, err := ff.Normalize(c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := cacheKey(d, opt); got != c.cache {
			t.Errorf("%s: cacheKey = %q, want %q", c.name, got, c.cache)
		}
		if got := exchangeKey(d, opt); got != c.exchng {
			t.Errorf("%s: exchangeKey = %q, want %q", c.name, got, c.exchng)
		}
	}
}
