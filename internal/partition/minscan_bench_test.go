package partition

import (
	"fmt"
	"testing"
)

// BenchmarkMinKeyScan measures the per-call cost of the argmin scan at the
// part counts the solvers actually use.
func BenchmarkMinKeyScan(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = minKeyOf(float64((i*2654435761)%997) + 0.5)
		}
		b.Run(fmt.Sprintf("generic/n%d", n), func(b *testing.B) {
			var s int
			for i := 0; i < b.N; i++ {
				ex := i % n
				saved := keys[ex]
				keys[ex] = emptyMinKey
				_, idx := minKeyScanGeneric(keys)
				keys[ex] = saved
				s += idx
			}
			sinkInt = s
		})
	}
}

var sinkInt int
