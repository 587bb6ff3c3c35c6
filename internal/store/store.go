// Package store is the server's persistent, content-addressed graph store.
//
// Graphs are identified by their content digest (graph.Digest): uploading
// the same graph twice — in any encoding, any edge order — lands on the
// same id and stores one copy. The store keeps a bounded in-memory tier of
// decoded graphs in LRU order and, when configured with a directory, spills
// every graph to disk in the binary CSR format (graph.EncodeBinary) so
// evicted entries reload with zero parse cost and the whole store survives
// a restart. Without a directory the store is memory-only and eviction is
// permanent — exactly the "404 on evicted id" behaviour the service
// documents.
package store

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/graph"
)

// DefaultMaxBytes bounds the in-memory tier when the caller passes 0:
// 256 MiB of encoded graph, roughly a couple hundred million edges.
const DefaultMaxBytes = 256 << 20

// fileExt is the on-disk suffix for spilled graphs: <digest>.ffg.
const fileExt = ".ffg"

// badExt is appended to a spill file that failed verification on load: the
// file is kept for inspection, but a rescan no longer indexes it.
const badExt = ".bad"

// Store is a content-addressed graph store with an LRU memory tier and
// optional on-disk spill. All methods are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu       sync.Mutex
	byID     map[string]*list.Element // id -> element in lru
	lru      *list.List               // front = most recently used; values are *entry
	memBytes int64
	onDisk   map[string]int64 // id -> encoded size, for graphs present on disk
}

// entry is one resident graph in the memory tier.
type entry struct {
	id   string
	g    *graph.Graph
	size int64 // encoded size, the unit the memory bound is in
}

// Stats is a point-in-time snapshot of the store's occupancy.
type Stats struct {
	// MemEntries and MemBytes describe the decoded in-memory tier; MemBytes
	// counts encoded sizes, the unit MaxBytes bounds.
	MemEntries int   `json:"mem_entries"`
	MemBytes   int64 `json:"mem_bytes"`
	// DiskEntries and DiskBytes describe the spill directory (zero for a
	// memory-only store).
	DiskEntries int   `json:"disk_entries"`
	DiskBytes   int64 `json:"disk_bytes"`
	// MaxBytes is the configured memory-tier bound.
	MaxBytes int64 `json:"max_bytes"`
}

// Open creates a store. dir == "" selects a memory-only store; otherwise
// dir is created if needed and rescanned, so graphs spilled by a previous
// process are immediately addressable again. maxBytes bounds the memory
// tier by encoded size (0 = DefaultMaxBytes).
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		byID:     make(map[string]*list.Element),
		lru:      list.New(),
		onDisk:   make(map[string]int64),
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, fileExt) {
			continue
		}
		id := strings.TrimSuffix(name, fileExt)
		// Cheap header check: magic, version, counts, and that the file is
		// named by its own digest. Content integrity is verified on load.
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		hdr := make([]byte, 64)
		k, _ := f.Read(hdr)
		f.Close()
		info, err := graph.PeekBinary(hdr[:k])
		if err != nil || info.Digest != id {
			continue // not ours; leave the file alone but don't index it
		}
		s.onDisk[id] = int64(info.EncodedLen)
	}
	return s, nil
}

// path returns the spill path for id.
func (s *Store) path(id string) string { return filepath.Join(s.dir, id+fileExt) }

// Put stores g and returns its content id. The second result reports
// whether the graph was new (false = deduplicated against an existing
// copy). The encoded form is written to disk before the id becomes
// addressable, so a crash never leaves a dangling id. Both tiers account a
// graph at its encoded length; a memory-only store never encodes. A graph
// whose spill file was refused by Get is no longer indexed, so its next Put
// writes the file afresh and reports it new.
func (s *Store) Put(g *graph.Graph) (string, bool, error) {
	id := graph.Digest(g)
	for {
		s.mu.Lock()
		if el, ok := s.byID[id]; ok {
			s.lru.MoveToFront(el)
			s.mu.Unlock()
			return id, false, nil
		}
		_, spilled := s.onDisk[id]
		s.mu.Unlock()

		if s.dir != "" && !spilled {
			if err := writeAtomic(s.path(id), graph.EncodeBinary(g)); err != nil {
				return "", false, fmt.Errorf("store: spilling %s: %w", id[:12], err)
			}
		}

		s.mu.Lock()
		if _, ok := s.byID[id]; ok {
			s.mu.Unlock()
			return id, false, nil // racing Put of the same graph won
		}
		if _, still := s.onDisk[id]; spilled && !still {
			// The file this Put relied on was refused or deleted
			// meanwhile: start over and write it.
			s.mu.Unlock()
			continue
		}
		size := int64(graph.EncodedBinaryLen(g))
		s.admit(id, g, size)
		if s.dir != "" {
			s.onDisk[id] = size
		}
		s.mu.Unlock()
		return id, !spilled, nil
	}
}

// admit inserts an entry at the front of the memory tier and evicts from
// the back until the bound holds again. The entry being admitted is never
// evicted, so a graph larger than the whole bound still works (the tier
// just holds only it). Caller holds s.mu.
func (s *Store) admit(id string, g *graph.Graph, size int64) {
	el := s.lru.PushFront(&entry{id: id, g: g, size: size})
	s.byID[id] = el
	s.memBytes += size
	for s.memBytes > s.maxBytes && s.lru.Len() > 1 {
		oldest := s.lru.Back()
		e := oldest.Value.(*entry)
		s.lru.Remove(oldest)
		delete(s.byID, e.id)
		s.memBytes -= e.size
		// Disk-backed stores keep the spilled file: the id stays
		// addressable and reloads on demand. Memory-only eviction is
		// permanent.
	}
}

// Get returns the graph stored under id. A memory hit is O(1) and marks
// the entry most recently used; a disk hit reloads, re-admits and counts
// as a miss in no externally visible way. The second result is false when
// the id is unknown, was evicted from a memory-only store, or its spill
// file failed verification; such a file is moved aside and the id
// forgotten.
func (s *Store) Get(id string) (*graph.Graph, bool) {
	s.mu.Lock()
	if el, ok := s.byID[id]; ok {
		s.lru.MoveToFront(el)
		g := el.Value.(*entry).g
		s.mu.Unlock()
		return g, true
	}
	size, spilled := s.onDisk[id]
	s.mu.Unlock()
	if !spilled {
		return nil, false
	}
	// Load outside the lock; OpenBinary verifies the content digest, so a
	// corrupted spill file is refused rather than served.
	g, err := graph.OpenBinary(s.path(id))
	ok := err == nil && graph.Digest(g) == id
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, in := s.byID[id]; in { // racing reload or Put won
		s.lru.MoveToFront(el)
		return el.Value.(*entry).g, true
	}
	if _, still := s.onDisk[id]; !still {
		return nil, false // deleted while we were loading
	}
	if !ok {
		// Forget the id and move the file aside, under the lock: no Put
		// writes this file while the id is indexed, so the file moved is
		// the one refused, and the next Put of the graph writes it afresh.
		delete(s.onDisk, id)
		_ = os.Rename(s.path(id), s.path(id)+badExt)
		return nil, false
	}
	s.admit(id, g, size)
	return g, true
}

// Contains reports whether id is currently addressable, without touching
// LRU order or loading anything.
func (s *Store) Contains(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[id]; ok {
		return true
	}
	_, ok := s.onDisk[id]
	return ok
}

// Delete removes id from every tier and reports whether it existed.
func (s *Store) Delete(id string) bool {
	s.mu.Lock()
	el, inMem := s.byID[id]
	_, spilled := s.onDisk[id]
	if inMem {
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.byID, id)
		s.memBytes -= e.size
	}
	delete(s.onDisk, id)
	s.mu.Unlock()
	if spilled {
		_ = os.Remove(s.path(id))
	}
	return inMem || spilled
}

// Stats returns a snapshot of the store's occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		MemEntries: s.lru.Len(),
		MemBytes:   s.memBytes,
		MaxBytes:   s.maxBytes,
	}
	for _, sz := range s.onDisk {
		st.DiskEntries++
		st.DiskBytes += sz
	}
	return st
}

// writeAtomic writes data to path via a temp file + rename, so a crashed
// write never leaves a half-written graph under a valid name.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ffg-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
