package server

import (
	"bytes"
	"encoding/json"
	"math"
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
	if labels, end, ok := scanArray(data, skipSpace(data, 0), scanInt32); ok && skipSpace(data, end) == len(data) {
		*l = labels
		return nil
	}
	return json.Unmarshal(data, (*[]int32)(l))
}

// scanArray decodes the plain form of a flat array starting at data[i]: a
// JSON array of values that scan reads, whitespace allowed between tokens.
// It returns the values and the index just past the closing bracket, or
// reports false for anything it does not handle.
func scanArray[T any](data []byte, i int, scan func(data []byte, i int) (T, int, bool)) ([]T, int, bool) {
	if i == len(data) || data[i] != '[' {
		return nil, 0, false
	}
	// A plain array nests nothing, so it ends at the first closing bracket,
	// and every value but the last is followed by a comma.
	n := bytes.IndexByte(data[i:], ']')
	if n < 0 {
		return nil, 0, false
	}
	out := make([]T, 0, bytes.Count(data[i:i+n], []byte{','})+1)
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return out, i + 1, true
	}
	for {
		x, next, ok := scan(data, i)
		if !ok {
			return nil, 0, false
		}
		out = append(out, x)
		i = skipSpace(data, next)
		if i == len(data) {
			return nil, 0, false
		}
		if data[i] == ']' {
			return out, i + 1, true
		}
		if data[i] != ',' {
			return nil, 0, false
		}
		i = skipSpace(data, i+1)
	}
}

// scanInt32 reads a JSON integer starting at data[i] and returns its value
// and the index just past its digits. ok is false for a non-number, a
// leading zero, and a value outside the int32 range. A fraction or exponent
// is left unread, so the caller finds no comma or bracket after the digits
// and rejects the input.
func scanInt32(data []byte, i int) (x int32, end int, ok bool) {
	n, end, ok := scanInt(data, i)
	if !ok || n < math.MinInt32 || n > math.MaxInt32 {
		return 0, 0, false
	}
	return int32(n), end, true
}

// maxIntDigits is the most digits scanInt reads: every 18-digit integer
// fits an int64.
const maxIntDigits = 18

// scanInt is scanInt32 for any integer of at most maxIntDigits digits.
func scanInt(data []byte, i int) (x int64, end int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	digits := i
	for i < len(data) && isDigit(data[i]) {
		if i-digits == maxIntDigits {
			return 0, 0, false
		}
		x = x*10 + int64(data[i]-'0')
		i++
	}
	if i == digits || (data[digits] == '0' && i > digits+1) {
		return 0, 0, false
	}
	if neg {
		x = -x
	}
	return x, i, true
}
