package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// loopy returns a small graph with self-loops, non-unit vertex and edge
// weights — the shape a coarsened graph has.
func loopy() *Graph {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 2.5)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 0.125)
	b.AddEdge(3, 4, 7)
	b.AddEdge(0, 4, 1)
	b.AddEdge(1, 4, 3)
	b.SetVertexWeight(0, 3)
	b.SetVertexWeight(3, 0.5)
	b.AddSelfLoop(1, 4.25)
	b.AddSelfLoop(4, 0.75)
	return b.MustBuild()
}

func binaryCases() map[string]*Graph {
	return map[string]*Graph{
		"path":        Path(6),
		"single":      Path(1),
		"empty-edges": NewBuilder(4).MustBuild(),
		"grid":        Grid2D(7, 5),
		"complete":    Complete(9),
		"gnp":         GNP(60, 0.1, 42),
		"loopy":       loopy(),
		"weighted": WeightedGrid2D(4, 4, func(u, v int) float64 {
			return 0.5 + float64(u*31+v)/7
		}),
	}
}

// graphsEqual does a field-by-field bit-identical comparison, derived
// arrays included.
func graphsEqual(t *testing.T, name string, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: shape %dv/%de vs %dv/%de", name, a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	n := a.NumVertices()
	for v := 0; v <= n; v++ {
		if a.xadj[v] != b.xadj[v] {
			t.Fatalf("%s: xadj[%d] = %d vs %d", name, v, a.xadj[v], b.xadj[v])
		}
	}
	for i := range a.adjncy {
		if a.adjncy[i] != b.adjncy[i] || a.adjwgt[i] != b.adjwgt[i] || a.arcEID[i] != b.arcEID[i] {
			t.Fatalf("%s: arc %d differs: (%d,%g,eid %d) vs (%d,%g,eid %d)", name, i,
				a.adjncy[i], a.adjwgt[i], a.arcEID[i], b.adjncy[i], b.adjwgt[i], b.arcEID[i])
		}
	}
	for e := range a.eu {
		if a.eu[e] != b.eu[e] || a.ev[e] != b.ev[e] || a.ewgt[e] != b.ewgt[e] {
			t.Fatalf("%s: edge %d differs", name, e)
		}
	}
	for v := 0; v < n; v++ {
		if a.vwgt[v] != b.vwgt[v] || a.wdeg[v] != b.wdeg[v] || a.VertexLoop(v) != b.VertexLoop(v) {
			t.Fatalf("%s: vertex %d differs: vwgt %g/%g wdeg %g/%g loop %g/%g", name, v,
				a.vwgt[v], b.vwgt[v], a.wdeg[v], b.wdeg[v], a.VertexLoop(v), b.VertexLoop(v))
		}
	}
	if a.totW != b.totW || a.totVW != b.totVW || a.totLW != b.totLW {
		t.Fatalf("%s: totals differ: (%g,%g,%g) vs (%g,%g,%g)", name,
			a.totW, a.totVW, a.totLW, b.totW, b.totVW, b.totLW)
	}
	if a.unitEW != b.unitEW || a.unitVW != b.unitVW {
		t.Fatalf("%s: unit-weight flags differ: (%v,%v) vs (%v,%v)", name,
			a.unitEW, a.unitVW, b.unitEW, b.unitVW)
	}
	if a.HasLoops() != b.HasLoops() {
		t.Fatalf("%s: HasLoops %v vs %v", name, a.HasLoops(), b.HasLoops())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, g := range binaryCases() {
		data := EncodeBinary(g)
		if len(data) != EncodedBinaryLen(g) {
			t.Fatalf("%s: encoded %d bytes, EncodedBinaryLen says %d", name, len(data), EncodedBinaryLen(g))
		}
		dec, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%s: DecodeBinary: %v", name, err)
		}
		graphsEqual(t, name+"/decode", g, dec)
		// The encoding is canonical: re-encoding the decoded graph is
		// byte-identical, and the digest survives.
		if !bytes.Equal(EncodeBinary(dec), data) {
			t.Fatalf("%s: re-encode not byte-identical", name)
		}
		if Digest(dec) != Digest(g) {
			t.Fatalf("%s: digest changed across round trip", name)
		}
	}
}

func TestOpenBinary(t *testing.T) {
	dir := t.TempDir()
	for name, g := range binaryCases() {
		path := filepath.Join(dir, name+".ffg")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(f, g); err != nil {
			t.Fatalf("%s: WriteBinary: %v", name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		dec, err := OpenBinary(path)
		if err != nil {
			t.Fatalf("%s: OpenBinary: %v", name, err)
		}
		graphsEqual(t, name+"/open", g, dec)
	}
	if _, err := OpenBinary(filepath.Join(dir, "missing.ffg")); err == nil {
		t.Fatal("OpenBinary of a missing file succeeded")
	}
}

func TestPeekBinary(t *testing.T) {
	g := loopy()
	data := EncodeBinary(g)
	info, err := PeekBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != g.NumVertices() || info.M != g.NumEdges() || !info.HasLoops {
		t.Fatalf("header says %dv/%de loops=%v", info.N, info.M, info.HasLoops)
	}
	if info.Digest != Digest(g) {
		t.Fatalf("header digest %s, Digest %s", info.Digest, Digest(g))
	}
	if info.EncodedLen != len(data) {
		t.Fatalf("header implies %d bytes, encoding is %d", info.EncodedLen, len(data))
	}
	// Header-only prefix is enough for Peek.
	if _, err := PeekBinary(data[:binaryHeaderLen]); err != nil {
		t.Fatalf("peek of bare header: %v", err)
	}
	if _, err := PeekBinary(data[:binaryHeaderLen-1]); err == nil {
		t.Fatal("peek of truncated header succeeded")
	}
}

// TestContentHashLoopSensitivity pins the digest semantics: loop-free
// digests ignore the loop section entirely (so they are stable against
// pre-store releases), while loop weights do change the digest.
func TestContentHashLoopSensitivity(t *testing.T) {
	plain := Path(4)
	if plain.HasLoops() {
		t.Fatal("Path has loops?")
	}
	b := NewBuilder(4)
	for i := 0; i+1 < 4; i++ {
		b.AddEdge(i, i+1, 1)
	}
	b.AddSelfLoop(2, 1.5)
	looped := b.MustBuild()
	if Digest(plain) == Digest(looped) {
		t.Fatal("self-loop weight did not change the digest")
	}
	b2 := NewBuilder(4)
	for i := 0; i+1 < 4; i++ {
		b2.AddEdge(i, i+1, 1)
	}
	b2.AddSelfLoop(2, 2.5)
	if Digest(looped) == Digest(b2.MustBuild()) {
		t.Fatal("different self-loop weights hash identically")
	}
}

// corrupt returns a copy of data with the byte at off replaced.
func corrupt(data []byte, off int, b byte) []byte {
	out := append([]byte(nil), data...)
	out[off] = b
	return out
}

func TestDecodeBinaryRejects(t *testing.T) {
	g := GNP(30, 0.15, 7)
	data := EncodeBinary(g)
	n := g.NumVertices()

	cases := map[string][]byte{
		"empty":           nil,
		"truncated":       data[:len(data)-1],
		"trailing":        append(append([]byte(nil), data...), 0),
		"bad magic":       corrupt(data, 0, 'X'),
		"bad version":     corrupt(data, 4, 99),
		"unknown flags":   corrupt(data, 5, 0x80),
		"reserved set":    corrupt(data, 6, 1),
		"digest mismatch": corrupt(data, 16, data[16]^0xff),
	}
	// xadj out of monotone order: xadj[1] beyond xadj[2].
	nonMono := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(nonMono[binaryHeaderLen+4:], uint32(g.xadj[2]+1))
	cases["non-monotone xadj"] = nonMono
	// Neighbor out of range.
	badNbr := append([]byte(nil), data...)
	adjOff := binaryHeaderLen + pad8(4*(n+1))
	binary.LittleEndian.PutUint32(badNbr[adjOff:], uint32(n+5))
	cases["neighbor out of range"] = badNbr
	// Asymmetric weight: change one arc's weight without its mirror.
	badW := append([]byte(nil), data...)
	wOff := adjOff + pad8(4*2*g.NumEdges())
	binary.LittleEndian.PutUint64(badW[wOff:], math.Float64bits(123.0))
	cases["asymmetric weight"] = badW
	// Header claims fewer vertices than the body carries.
	shrunk := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(shrunk[8:], uint32(n-1))
	cases["count/length mismatch"] = shrunk
	// Oversized counts must be refused before any allocation.
	huge := append([]byte(nil), data[:binaryHeaderLen]...)
	binary.LittleEndian.PutUint32(huge[8:], 0xffffffff)
	cases["huge vertex count"] = huge

	for name, bad := range cases {
		if _, err := DecodeBinary(bad); err == nil {
			t.Errorf("%s: DecodeBinary accepted corrupted input", name)
		}
	}
}

// TestContentHashMatchesNeighborStream cross-checks ContentHash against an
// independent reimplementation of the documented stream.
func TestContentHashMatchesNeighborStream(t *testing.T) {
	// loopy's stream fits in one hashChunk; the weighted random geometric
	// graph's spans many, ending mid-chunk, and has a loop section.
	big := NewBuilder(3000)
	RandomGeometric(3000, 0.04, 5).ForEachEdge(func(u, v int, w float64) {
		big.AddEdge(u, v, w+float64(u%7)/8)
	})
	big.SetVertexWeight(17, 2.5)
	big.AddSelfLoop(2999, 0.25)
	bigGraph := big.MustBuild()
	if size := len(contentStream(bigGraph)); size <= 2*hashChunk || size%hashChunk == 0 {
		t.Fatalf("big: stream of %d bytes does not end mid-chunk after several", size)
	}
	for name, g := range map[string]*Graph{"loopy": loopy(), "big": bigGraph} {
		if ContentHash(g) != sha256.Sum256(contentStream(g)) {
			t.Fatalf("%s: ContentHash does not match the documented byte stream", name)
		}
	}
}

// contentStream writes the byte stream ContentHash documents, one word at a
// time.
func contentStream(g *Graph) []byte {
	var stream bytes.Buffer
	writeInt := func(x int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		stream.Write(b[:])
	}
	writeFloat := func(f float64) { writeInt(int64(math.Float64bits(f))) }
	writeInt(int64(g.NumVertices()))
	writeInt(int64(g.NumEdges()))
	for v := 0; v < g.NumVertices(); v++ {
		writeFloat(g.VertexWeight(v))
		for i, u := range g.Neighbors(v) {
			if int(u) >= v {
				writeInt(int64(u))
				writeFloat(g.Weights(v)[i])
			}
		}
	}
	if g.HasLoops() {
		writeInt(-1)
		for v := 0; v < g.NumVertices(); v++ {
			writeFloat(g.VertexLoop(v))
		}
	}
	return stream.Bytes()
}

// TestDigestPinned pins the RG-10k digest recorded before the hash stream
// was batched: stored graph ids, result-cache keys and island exchange keys
// all carry it, so it must never move.
func TestDigestPinned(t *testing.T) {
	const want = "42f29fb4c8d8463dd691701da50bea662f680f9aa3f1ded25c764ce6113f09fa"
	if got := Digest(RandomGeometric(10000, 0.02, 1)); got != want {
		t.Fatalf("Digest(RandomGeometric(10000, 0.02, 1)) = %s, want %s", got, want)
	}
}
