package server

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// EdgeList is the wire form of an inline edge list: a JSON array of
// [u, v] or [u, v, weight] arrays. It decodes exactly like [][]float64 —
// same accepted inputs, same values bit for bit, same nil-versus-empty
// slices, same error text — but without reflection on the common form.
//
// The plain form (arrays of JSON numbers, whitespace allowed) is scanned
// straight from the bytes into one flat []float64; every edge is a
// full-slice view of it, so appending to one edge never writes into the
// next. Anything else (null, strings, objects, deeper nesting, numbers that
// do not fit a float64) goes to encoding/json unchanged, which keeps
// acceptance and error text equal by construction: the decoder adds the
// enclosing field context to the type error exactly as it does for a
// reflected slice. One difference remains: encoding/json stops at an
// Unmarshaler's error but only records a reflected type error and carries
// on, so when an earlier field of the same body also has a type error, the
// edge list's error is the one reported.
type EdgeList [][]float64

// UnmarshalJSON implements json.Unmarshaler.
func (l *EdgeList) UnmarshalJSON(data []byte) error {
	if edges, ok := scanEdgeList(data); ok {
		*l = edges
		return nil
	}
	return json.Unmarshal(data, (*[][]float64)(l))
}

// scanEdgeList decodes the plain form of an edge list, or reports false for
// anything it does not handle, leaving no trace.
func scanEdgeList(data []byte) (EdgeList, bool) {
	// Every value but the last is followed by a comma and every edge
	// opens with a bracket, so both arrays are allocated once.
	flat := make([]float64, 0, bytes.Count(data, []byte{','})+1)
	edges := make(EdgeList, 0, bytes.Count(data, []byte{'['}))
	end, ok := scanEdges(data, skipSpace(data, 0), func(e []float64) bool {
		s := len(flat)
		flat = append(flat, e...)
		edges = append(edges, flat[s:len(flat):len(flat)])
		return true
	})
	if !ok || skipSpace(data, end) != len(data) {
		return nil, false
	}
	return edges, true
}

// scanEdges is the one grammar of a plain edge list, shared by EdgeList and
// the one-pass request scan: starting at data[i], a JSON array of arrays of
// JSON numbers, whitespace allowed between tokens. It calls edge with each
// inner array's values in list order and returns the index just past the
// outer array. The slice edge receives is reused for the next edge, so edge
// copies what it keeps. ok is false for anything else, and as soon as edge
// reports false.
func scanEdges(data []byte, i int, edge func(e []float64) bool) (end int, ok bool) {
	if i == len(data) || data[i] != '[' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return i + 1, true
	}
	e := make([]float64, 0, 3)
	for {
		if i == len(data) || data[i] != '[' {
			return 0, false
		}
		e = e[:0]
		i = skipSpace(data, i+1)
		if i < len(data) && data[i] == ']' {
			i++
		} else {
			for {
				x, next, ok := scanNumber(data, i)
				if !ok {
					return 0, false
				}
				e = append(e, x)
				i = skipSpace(data, next)
				if i == len(data) {
					return 0, false
				}
				if data[i] == ']' {
					i++
					break
				}
				if data[i] != ',' {
					return 0, false
				}
				i = skipSpace(data, i+1)
			}
		}
		if !edge(e) {
			return 0, false
		}
		i = skipSpace(data, i)
		if i == len(data) {
			return 0, false
		}
		if data[i] == ']' {
			return i + 1, true
		}
		if data[i] != ',' {
			return 0, false
		}
		i = skipSpace(data, i+1)
	}
}

// skipSpace returns the index of the first non-whitespace byte at or after
// i (JSON whitespace: space, tab, newline, carriage return).
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// exactDigits is the most decimal digits an integer may have to convert to
// float64 exactly by accumulation: 10^15 < 2^53.
const exactDigits = 15

// scanNumber reads the JSON number starting at data[i] and returns its
// float64 value and the index just past it. Integers of up to exactDigits
// digits convert directly; every other number is checked against the JSON
// grammar and then parsed by strconv.ParseFloat, which is what
// encoding/json calls. ok is false for a non-number and for a value outside
// the float64 range.
func scanNumber(data []byte, i int) (x float64, end int, ok bool) {
	start := i
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	digits := i
	var n int64 // wraps past 18 digits, but is only used up to exactDigits
	for i < len(data) && isDigit(data[i]) {
		n = n*10 + int64(data[i]-'0')
		i++
	}
	if i == digits || (data[digits] == '0' && i > digits+1) {
		return 0, 0, false // no digits, or a leading zero
	}
	intEnd := i
	if i < len(data) && data[i] == '.' {
		if i = skipDigits(data, i+1); i < 0 {
			return 0, 0, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i = skipDigits(data, i); i < 0 {
			return 0, 0, false
		}
	}
	if i == intEnd && intEnd-digits <= exactDigits {
		x = float64(n)
		if neg {
			x = -x
		}
		return x, i, true
	}
	x, err := strconv.ParseFloat(string(data[start:i]), 64)
	if err != nil {
		return 0, 0, false
	}
	return x, i, true
}

// skipDigits returns the index past a non-empty run of digits starting at
// data[i], or -1 when there is none.
func skipDigits(data []byte, i int) int {
	start := i
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
