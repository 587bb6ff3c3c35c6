package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The METIS/Chaco graph file format:
//
//	% comment lines start with '%'
//	<n> <m> [fmt]
//	neighbors of vertex 1 (1-indexed), optionally interleaved with weights
//	...
//
// fmt is a three-digit code: 1xx = vertex sizes (unsupported here),
// x1x = vertex weights, xx1 = edge weights. We support 000, 001, 010, 011.

// WriteMETIS writes g in METIS format. Edge weights are written whenever any
// weight differs from 1; vertex weights likewise. Weights are rendered with
// %g, so integral weights round-trip exactly.
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hasVW, hasEW := false, false
	for v := 0; v < g.NumVertices(); v++ {
		if g.VertexWeight(v) != 1 {
			hasVW = true
		}
		for _, ew := range g.Weights(v) {
			if ew != 1 {
				hasEW = true
			}
		}
	}
	code := "00"
	if hasVW {
		code = "01"
	}
	if hasEW {
		code += "1"
	} else {
		code += "0"
	}
	if _, err := fmt.Fprintf(bw, "%d %d %s\n", g.NumVertices(), g.NumEdges(), code); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		parts := make([]string, 0, 2*g.Degree(v)+1)
		if hasVW {
			parts = append(parts, strconv.FormatFloat(g.VertexWeight(v), 'g', -1, 64))
		}
		nbrs := g.Neighbors(v)
		wts := g.Weights(v)
		for i, u := range nbrs {
			parts = append(parts, strconv.Itoa(int(u)+1))
			if hasEW {
				parts = append(parts, strconv.FormatFloat(wts[i], 'g', -1, 64))
			}
		}
		if _, err := fmt.Fprintln(bw, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMETIS parses a graph in METIS format. Both endpoints must list every
// edge; the builder merges the two directed mentions (weights must agree, or
// the merged weight doubles — we check and reject asymmetric listings).
//
// The header is not trusted: all O(n) allocation is deferred until n
// adjacency lines have actually been read, so a tiny input claiming a huge
// vertex count fails fast instead of exhausting memory.
func ReadMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: missing header: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, fmt.Errorf("graph: malformed header %q", line)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("graph: bad vertex count: %w", err)
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("graph: bad edge count: %w", err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative header counts %d %d", n, m)
	}
	if n > MaxVertices || m > MaxVertices/2 {
		return nil, fmt.Errorf("graph: header counts %d %d exceed implementation limits", n, m)
	}
	hasVW, hasEW := false, false
	if len(fields) >= 3 {
		code := fields[2]
		if len(code) != 3 || strings.Trim(code, "01") != "" || code[0] == '1' {
			return nil, fmt.Errorf("graph: unsupported format code %q", code)
		}
		hasVW = code[1] == '1'
		hasEW = code[2] == '1'
	}

	// Each undirected edge must be mentioned exactly twice, once per
	// endpoint; mention tracks which endpoint spoke first so a vertex
	// repeating its own mention cannot masquerade as the confirmation.
	type mention struct {
		w         float64
		from      int32
		confirmed bool
	}
	seen := make(map[[2]int32]mention)
	var vwgts []float64 // grown per line read, so memory tracks input size
	if hasVW {
		vwgts = make([]float64, 0)
	}
	for v := 0; v < n; v++ {
		line, err := nextBodyLine(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: missing adjacency line for vertex %d: %w", v+1, err)
		}
		toks := strings.Fields(line)
		i := 0
		if hasVW {
			if len(toks) == 0 {
				return nil, fmt.Errorf("graph: vertex %d: missing weight", v+1)
			}
			vw, err := strconv.ParseFloat(toks[0], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d: bad weight: %w", v+1, err)
			}
			if !(vw > 0) || math.IsInf(vw, 1) {
				return nil, fmt.Errorf("graph: vertex %d: weight %g not positive and finite", v+1, vw)
			}
			vwgts = append(vwgts, vw)
			i = 1
		}
		for i < len(toks) {
			u, err := strconv.Atoi(toks[i])
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d: bad neighbor %q: %w", v+1, toks[i], err)
			}
			if u < 1 || u > n {
				return nil, fmt.Errorf("graph: vertex %d: neighbor %d out of range [1,%d]", v+1, u, n)
			}
			i++
			w := 1.0
			if hasEW {
				if i >= len(toks) {
					return nil, fmt.Errorf("graph: vertex %d: neighbor %d missing edge weight", v+1, u)
				}
				w, err = strconv.ParseFloat(toks[i], 64)
				if err != nil {
					return nil, fmt.Errorf("graph: vertex %d: bad edge weight: %w", v+1, err)
				}
				if !(w > 0) || math.IsInf(w, 1) {
					return nil, fmt.Errorf("graph: vertex %d: edge weight %g not positive and finite", v+1, w)
				}
				i++
			}
			a, c := int32(v), int32(u-1)
			if a > c {
				a, c = c, a
			}
			key := [2]int32{a, c}
			switch prev, ok := seen[key]; {
			case !ok:
				seen[key] = mention{w: w, from: int32(v)}
			case prev.confirmed:
				return nil, fmt.Errorf("graph: edge {%d,%d} listed more than twice", a+1, c+1)
			case prev.from == int32(v):
				return nil, fmt.Errorf("graph: vertex %d lists neighbor %d twice", v+1, u)
			case prev.w != w:
				return nil, fmt.Errorf("graph: edge {%d,%d} listed with weights %g and %g", a+1, c+1, prev.w, w)
			default:
				seen[key] = mention{w: w, from: prev.from, confirmed: true}
			}
		}
	}

	// Both endpoints have reported; only now is O(n) allocation justified.
	b := NewBuilder(n)
	b.Reserve(len(seen))
	for v, w := range vwgts {
		b.SetVertexWeight(v, w)
	}
	for key, h := range seen {
		if !h.confirmed {
			return nil, fmt.Errorf("graph: edge {%d,%d} listed by only one endpoint", key[0]+1, key[1]+1)
		}
		b.AddEdge(int(key[0]), int(key[1]), h.w)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", m, g.NumEdges())
	}
	return g, nil
}

// nextDataLine returns the next non-blank, non-comment line; used for the
// header, where blank lines carry no meaning.
func nextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// nextBodyLine returns the next non-comment line. Unlike the header, a blank
// body line is meaningful: it is the (empty) adjacency list of an isolated
// vertex, exactly what WriteMETIS emits for one.
func nextBodyLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
