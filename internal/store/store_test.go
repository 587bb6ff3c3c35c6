package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/graph"
)

func TestPutGetDelete(t *testing.T) {
	s, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid2D(4, 4)
	id, created, err := s.Put(g)
	if err != nil || !created {
		t.Fatalf("Put: created=%v err=%v", created, err)
	}
	if id != graph.Digest(g) {
		t.Fatalf("id %s is not the content digest", id)
	}
	// Dedup: same content, same id, not created.
	id2, created2, err := s.Put(graph.Grid2D(4, 4))
	if err != nil || created2 || id2 != id {
		t.Fatalf("dedup Put: id=%s created=%v err=%v", id2, created2, err)
	}
	got, ok := s.Get(id)
	if !ok || graph.Digest(got) != id {
		t.Fatalf("Get: ok=%v", ok)
	}
	if !s.Contains(id) {
		t.Fatal("Contains false for stored id")
	}
	if !s.Delete(id) {
		t.Fatal("Delete reported missing")
	}
	if _, ok := s.Get(id); ok {
		t.Fatal("Get after Delete succeeded")
	}
	if s.Delete(id) {
		t.Fatal("second Delete reported present")
	}
}

func TestMemoryOnlyEvictionIsPermanent(t *testing.T) {
	g1, g2 := graph.Grid2D(6, 6), graph.Cycle(40)
	bound := int64(len(graph.EncodeBinary(g1)) + len(graph.EncodeBinary(g2)))
	s, err := Open("", bound)
	if err != nil {
		t.Fatal(err)
	}
	id1, _, _ := s.Put(g1)
	id2, _, _ := s.Put(g2)
	// A third graph overflows the bound; the LRU victim is g1.
	id3, _, _ := s.Put(graph.Complete(12))
	if _, ok := s.Get(id1); ok {
		t.Fatal("evicted id still addressable in a memory-only store")
	}
	for _, id := range []string{id2, id3} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("resident id %s lost", id[:12])
		}
	}
	st := s.Stats()
	if st.MemEntries != 2 || st.DiskEntries != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLRUOrderRespectsGets(t *testing.T) {
	g1, g2 := graph.Grid2D(6, 6), graph.Cycle(40)
	bound := int64(len(graph.EncodeBinary(g1)) + len(graph.EncodeBinary(g2)))
	s, _ := Open("", bound)
	id1, _, _ := s.Put(g1)
	id2, _, _ := s.Put(g2)
	s.Get(id1) // touch: id2 becomes the LRU victim
	s.Put(graph.Path(10))
	if _, ok := s.Get(id1); !ok {
		t.Fatal("recently used id evicted")
	}
	if _, ok := s.Get(id2); ok {
		t.Fatal("least recently used id survived")
	}
}

func TestDiskSpillAndReload(t *testing.T) {
	dir := t.TempDir()
	g1, g2 := graph.Grid2D(6, 6), graph.Cycle(40)
	bound := int64(len(graph.EncodeBinary(g1)) + len(graph.EncodeBinary(g2)))
	s, err := Open(dir, bound)
	if err != nil {
		t.Fatal(err)
	}
	id1, _, _ := s.Put(g1)
	s.Put(g2)
	s.Put(graph.Complete(12)) // evicts g1 from memory; file stays
	if _, ok := s.Get(id1); !ok {
		t.Fatal("spilled id not reloadable")
	}
	st := s.Stats()
	if st.DiskEntries != 3 {
		t.Fatalf("want 3 disk entries, got %+v", st)
	}
}

func TestRestartRescan(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir, 0)
	g := graph.GNP(50, 0.1, 3)
	id, _, _ := s1.Put(g)

	// A fresh store over the same directory sees the graph again.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(id)
	if !ok {
		t.Fatal("rescan lost the stored graph")
	}
	if graph.Digest(got) != id {
		t.Fatal("rescan returned a different graph")
	}
	// Dedup survives the restart too: re-uploading is not "created".
	_, created, err := s2.Put(g)
	if err != nil || created {
		t.Fatalf("re-upload after restart: created=%v err=%v", created, err)
	}

	// Junk in the directory is ignored, not served.
	if err := os.WriteFile(filepath.Join(dir, "junk.ffg"), []byte("not a graph"), 0o644); err != nil {
		t.Fatal(err)
	}
	misnamed := filepath.Join(dir, "0000000000000000000000000000000000000000000000000000000000000000.ffg")
	if err := os.WriteFile(misnamed, graph.EncodeBinary(graph.Path(3)), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Contains("junk") {
		t.Fatal("junk file indexed")
	}
	if s3.Contains("0000000000000000000000000000000000000000000000000000000000000000") {
		t.Fatal("misnamed file indexed")
	}
	if !s3.Contains(id) {
		t.Fatal("valid file skipped")
	}
}

func TestCorruptedSpillRefused(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, int64(len(graph.EncodeBinary(graph.Grid2D(6, 6)))))
	id, _, _ := s.Put(graph.Grid2D(6, 6))
	s.Put(graph.Cycle(40)) // evict the grid to disk only
	// Flip a byte in the spill file's body.
	path := filepath.Join(dir, id+".ffg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(id); ok {
		t.Fatal("corrupted spill file served")
	}
}

func TestOversizeGraphStillWorks(t *testing.T) {
	s, _ := Open("", 16) // bound smaller than any encoding
	id, _, err := s.Put(graph.Grid2D(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(id); !ok {
		t.Fatal("oversize graph not addressable: the newest entry must never self-evict")
	}
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 1<<20)
	graphs := make([]*graph.Graph, 8)
	ids := make([]string, 8)
	for i := range graphs {
		graphs[i] = graph.GNP(30+i, 0.2, int64(i))
		ids[i] = graph.Digest(graphs[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w + i) % len(graphs)
				switch i % 3 {
				case 0:
					if _, _, err := s.Put(graphs[k]); err != nil {
						t.Errorf("Put: %v", err)
					}
				case 1:
					if g, ok := s.Get(ids[k]); ok && graph.Digest(g) != ids[k] {
						t.Error("Get returned the wrong graph")
					}
				case 2:
					s.Contains(ids[k])
				}
			}
		}(w)
	}
	wg.Wait()
	for i, id := range ids {
		if _, _, err := s.Put(graphs[i]); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(id); !ok {
			t.Fatalf("graph %d lost after concurrent churn", i)
		}
	}
}

func TestStatsShape(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 123456)
	for i := 0; i < 3; i++ {
		if _, _, err := s.Put(graph.Path(10 + i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemEntries != 3 || st.DiskEntries != 3 || st.MaxBytes != 123456 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MemBytes <= 0 || st.DiskBytes != st.MemBytes {
		t.Fatalf("byte accounting: %+v", st)
	}
	_ = fmt.Sprintf("%+v", st) // Stats must be printable (used in /v1/graphs listing)
}

// TestSizesAreEncodedLengths: both tiers account each graph at exactly the
// length of its binary encoding, whether or not the store ever encodes it.
func TestSizesAreEncodedLengths(t *testing.T) {
	weighted := graph.NewBuilder(4)
	weighted.AddEdge(0, 1, 2.5)
	weighted.AddEdge(2, 3, 0.125)
	weighted.SetVertexWeight(1, 3)
	loopy := graph.NewBuilder(3)
	loopy.AddEdge(0, 1, 1)
	loopy.AddSelfLoop(2, 0.75)
	graphs := []*graph.Graph{weighted.MustBuild(), loopy.MustBuild(), graph.NewBuilder(5).MustBuild()}
	var want int64
	for _, g := range graphs {
		want += int64(len(graph.EncodeBinary(g)))
	}
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range graphs {
			if _, _, err := s.Put(g); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.MemBytes != want {
			t.Fatalf("dir %q: %d bytes in memory, want %d", dir, st.MemBytes, want)
		}
		if dir != "" && st.DiskBytes != want {
			t.Fatalf("dir %q: %d bytes on disk, want %d", dir, st.DiskBytes, want)
		}
	}
}

// BenchmarkPutMemoryOnly is admission of RG-10k into a fresh memory-only
// store: the content digest plus the size accounting, with no encoding.
func BenchmarkPutMemoryOnly(b *testing.B) {
	g := graph.RandomGeometric(10000, 0.02, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := Open("", 0)
		if _, _, err := s.Put(g); err != nil {
			b.Fatal(err)
		}
	}
}

// A spill file that fails verification is forgotten and moved aside: the id
// stops being addressable, the next Put of the graph rewrites the file and
// reports it created, and the graph then survives another eviction.
func TestCorruptedSpillHealsOnPut(t *testing.T) {
	dir := t.TempDir()
	grid := graph.Grid2D(6, 6)
	s, _ := Open(dir, int64(len(graph.EncodeBinary(grid))))
	id, _, _ := s.Put(grid)
	s.Put(graph.Cycle(40)) // evict the grid to disk only
	path := filepath.Join(dir, id+".ffg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(id); ok {
		t.Fatal("corrupted spill file served")
	}
	if s.Contains(id) {
		t.Fatal("refused id still reported as contained")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatalf("refused file not moved aside: %v", err)
	}
	if again, _ := Open(dir, 0); again.Contains(id) {
		t.Fatal("a rescan indexes the refused file")
	}
	if _, created, err := s.Put(grid); err != nil || !created {
		t.Fatalf("re-Put after refusal: created=%v err=%v, want a fresh write", created, err)
	}
	s.Put(graph.Cycle(40)) // evict the grid again
	got, ok := s.Get(id)
	if !ok || graph.Digest(got) != id {
		t.Fatal("rewritten spill file not reloadable")
	}
}

// Puts, Gets and Deletes of the same ids race under a memory bound that
// holds one graph, so most Gets reload from disk: no Get serves a wrong
// graph, and once the churn stops every graph put again reloads from its
// spill file.
func TestConcurrentPutDeleteReload(t *testing.T) {
	dir := t.TempDir()
	graphs := make([]*graph.Graph, 4)
	ids := make([]string, len(graphs))
	for i := range graphs {
		graphs[i] = graph.GNP(40+i, 0.2, int64(i))
		ids[i] = graph.Digest(graphs[i])
	}
	s, _ := Open(dir, 1)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w + i) % len(graphs)
				switch (w + i) % 4 {
				case 0, 1:
					if _, _, err := s.Put(graphs[k]); err != nil {
						t.Errorf("Put: %v", err)
					}
				case 2:
					if g, ok := s.Get(ids[k]); ok && graph.Digest(g) != ids[k] {
						t.Error("Get returned the wrong graph")
					}
				case 3:
					s.Delete(ids[k])
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range graphs {
		if _, _, err := s.Put(graphs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The bound holds one graph, so all but the last are on disk only.
	for i, id := range ids {
		if g, ok := s.Get(id); !ok || graph.Digest(g) != id {
			t.Fatalf("graph %d not reloadable after the churn", i)
		}
	}
}
