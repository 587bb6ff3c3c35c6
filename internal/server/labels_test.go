package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

// FuzzLabelsDecode: for any bytes, decoding into Labels and into []int32
// must agree on the error text, nil versus empty slices and every value —
// bare, through UnmarshalJSON directly, and as the warm_start field, where
// encoding/json adds the field context to the error.
func FuzzLabelsDecode(f *testing.F) {
	// The seeds cover the scanned form (whitespace, signs, zero, the int32
	// limits) and every fallback to encoding/json: null, strings, objects,
	// bools, nesting, fractions, exponents, out-of-range values, and
	// malformed numbers and punctuation.
	for _, s := range []string{
		`[0,1,2,1]`, " [ 3 ,\t0\r\n, 1 ] ", `[]`, `[ ]`, `[-0,0,-1]`,
		`[2147483647,-2147483648]`, `[2147483648]`, `[-2147483649]`,
		`[9999999999]`, `[12345678901]`, `[00000000001]`,
		`null`, `[null]`, `"x"`, `{}`, `[{"p":0}]`, `["1"]`, `[true]`, `[[0]]`,
		`[1.0]`, `[1.5]`, `[1e2]`, `[1E+0]`, `[-0.0]`, `[1e400]`,
		`[01]`, `[1.]`, `[-]`, `[+1]`, `[.5]`, `[1e]`,
		`[1,]`, `[1 2]`, `[1,2`, `[1]x`, `[1] [2]`, ``, `[`,
	} {
		f.Add([]byte(s))
	}
	// A stand-in for the parent's request shape: the struct name and the
	// field name are what the error text reports.
	type PartitionRequest struct {
		WarmStart []int32 `json:"warm_start"`
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Labels
		var want []int32
		gotErr, wantErr := json.Unmarshal(data, &got), json.Unmarshal(data, &want)
		checkSameLabels(t, data, got, want, gotErr, wantErr)
		// Called directly, with no syntax check by encoding/json first, the
		// scanner must still reject every malformed input.
		var direct Labels
		directErr := direct.UnmarshalJSON(data)
		checkSameLabels(t, data, direct, want, directErr, wantErr)
		if !json.Valid(data) {
			return
		}
		body := []byte(`{"warm_start":` + string(data) + `}`)
		var gotReq partitionRequestLabels
		var wantReq PartitionRequest
		gotErr, wantErr = json.Unmarshal(body, &gotReq), json.Unmarshal(body, &wantReq)
		checkSameLabels(t, body, gotReq.WarmStart, wantReq.WarmStart, gotErr, wantErr)
	})
}

// partitionRequestLabels names the package's PartitionRequest inside
// FuzzLabelsDecode, where the stand-in of the same name shadows it: the
// error text reports the struct name, so both must be PartitionRequest.
type partitionRequestLabels = PartitionRequest

func checkSameLabels(t *testing.T, data []byte, got Labels, want []int32, gotErr, wantErr error) {
	t.Helper()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%q: error %q, encoding/json says %q", data, errText(gotErr), errText(wantErr))
	}
	if (got == nil) != (want == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%q: decoded %#v, encoding/json gives %#v", data, got, want)
	}
}

// BenchmarkDecodeWarmStart is the partition half of a churn operation's
// decode, timed at the handler's decode entry point: a stored graph's id
// and 10,000 warm-start labels in [0, 32), the size the churn workload
// sends.
func BenchmarkDecodeWarmStart(b *testing.B) {
	var body bytes.Buffer
	body.WriteString(`{"graph":{"id":"0123456789abcdef"},"k":32,"method":"annealing","seed":1,"warm_start":[`)
	for v := 0; v < 10000; v++ {
		if v > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, "%d", v*7919%32)
	}
	body.WriteString(`]}`)
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &http.Request{Body: io.NopCloser(bytes.NewReader(body.Bytes())), ContentLength: int64(body.Len())}
		if _, _, err := decodePartition(readBody(r, 32<<20), 32<<20); err != nil {
			b.Fatal(err)
		}
	}
}
