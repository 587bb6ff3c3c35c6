package server

import (
	"bytes"
	"encoding/json"
)

// Labels is the wire form of a warm-start assignment: a JSON array of part
// ids. It decodes exactly like []int32 — same accepted inputs, same values,
// same nil-versus-empty slices, same error text — but without reflection
// on the common form.
//
// The plain form (integer literals that fit an int32, whitespace allowed)
// is scanned straight from the bytes. Anything else (null, fractions,
// exponents, out-of-range values, strings, nesting) goes to encoding/json
// unchanged, so acceptance and error text stay equal by construction, with
// EdgeList's one caveat: when an earlier field of the same body also has a
// type error, this field's error is the one reported.
type Labels []int32

// UnmarshalJSON implements json.Unmarshaler.
func (l *Labels) UnmarshalJSON(data []byte) error {
	if labels, ok := scanLabels(data); ok {
		*l = labels
		return nil
	}
	return json.Unmarshal(data, (*[]int32)(l))
}

// scanLabels decodes the plain form of a label array, or reports false for
// anything it does not handle.
func scanLabels(data []byte) (Labels, bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return nil, false
	}
	// Every label but the last is followed by a comma.
	labels := make(Labels, 0, bytes.Count(data, []byte{','})+1)
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return labels, skipSpace(data, i+1) == len(data)
	}
	for {
		x, next, ok := scanInt32(data, i)
		if !ok {
			return nil, false
		}
		labels = append(labels, x)
		i = skipSpace(data, next)
		if i == len(data) {
			return nil, false
		}
		if data[i] == ']' {
			return labels, skipSpace(data, i+1) == len(data)
		}
		if data[i] != ',' {
			return nil, false
		}
		i = skipSpace(data, i+1)
	}
}

// scanInt32 reads the digits of a JSON integer starting at data[i] and
// returns its value and the index just past them. ok is false for a
// non-number, a leading zero, and a value outside the int32 range. A
// fraction or exponent is left unread, so the caller finds no comma or
// bracket after the digits and rejects the array.
func scanInt32(data []byte, i int) (x int32, end int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	digits := i
	var n int64
	for i < len(data) && isDigit(data[i]) {
		if i-digits == 10 { // more digits than any int32 has
			return 0, 0, false
		}
		n = n*10 + int64(data[i]-'0')
		i++
	}
	if i == digits || (data[digits] == '0' && i > digits+1) {
		return 0, 0, false
	}
	if neg {
		n = -n
	}
	if n < -1<<31 || n > 1<<31-1 {
		return 0, 0, false
	}
	return int32(n), i, true
}
