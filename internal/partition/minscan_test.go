package partition

import (
	"math"
	"math/rand"
	"testing"
)

// referenceMinScan is the obvious specification: lowest index among the
// minimum keys, sentinel-aware.
func referenceMinScan(keys []uint64) (uint64, int) {
	mk := emptyMinKey
	idx := 0
	for a, k := range keys {
		if k < mk {
			mk, idx = k, a
		}
	}
	return mk, idx
}

func TestMinKeyScanGenericMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		keys := randomKeys(r)
		wantMK, wantIdx := referenceMinScan(keys)
		gotMK, gotIdx := minKeyScanGeneric(keys)
		if gotMK != wantMK || (wantMK != emptyMinKey && gotIdx != wantIdx) {
			t.Fatalf("trial %d len %d: generic = (%#x, %d), want (%#x, %d)",
				trial, len(keys), gotMK, gotIdx, wantMK, wantIdx)
		}
	}
}

// randomKeys builds adversarial key arrays: ragged lengths around the
// scan's 4-way unroll, heavy duplication so ties exercise the lowest-index
// rule, realistic minKeyOf images of weights, sentinels, and raw patterns
// covering both halves of the sign-flip mapping.
func randomKeys(r *rand.Rand) []uint64 {
	n := 1 + r.Intn(133)
	keys := make([]uint64, n)
	for i := range keys {
		switch r.Intn(6) {
		case 0:
			keys[i] = emptyMinKey
		case 1:
			keys[i] = minKeyOf(float64(r.Intn(8))) // dense duplicates
		case 2:
			keys[i] = minKeyOf(r.NormFloat64() * 1e3) // signed weights
		case 3:
			keys[i] = r.Uint64()
		case 4:
			keys[i] = minKeyOf(0)
		default:
			keys[i] = minKeyOf(math.Inf(1))
		}
	}
	return keys
}

func TestMinKeyScanAllEmpty(t *testing.T) {
	keys := make([]uint64, 9)
	for i := range keys {
		keys[i] = emptyMinKey
	}
	if mk, _ := minKeyScanGeneric(keys); mk != emptyMinKey {
		t.Fatalf("generic on all-empty = %#x, want sentinel", mk)
	}
}
