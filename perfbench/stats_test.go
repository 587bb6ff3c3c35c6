package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n, pct int
		want   float64
	}{
		{100, 50, 50}, {100, 90, 90}, {101, 50, 51}, {101, 90, 91}, {250, 90, 225}, {20, 50, 10},
	} {
		got, err := percentile(seq(c.n), c.pct)
		if err != nil || got != c.want {
			t.Errorf("p%d of 1..%d = %v, %v; want %v", c.pct, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := percentile(seq(99), 90); err == nil {
		t.Error("p90 from 99 samples was reported")
	}
	if _, err := percentile(seq(100), 91); err == nil {
		t.Error("p91 from 100 samples leaves 9 above its rank but was reported")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of nothing was reported")
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if got, _ := percentile(xs, 90); !math.IsInf(got, 1) {
		t.Errorf("with 11%% failed operations p90 = %v, want +Inf", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100, CPU: 90},
		{Name: "a", Parent: 0, Start: 10, End: 40, CPU: 30},
		{Name: "b", Parent: 0, Start: 40, End: 90, CPU: 45},
		{Name: "c", Parent: 2, Start: 50, End: 70, CPU: 20},
	}
	wall, cpu := selfTimes(spans)
	wantWall, wantCPU := []int64{20, 30, 30, 20}, []int64{15, 30, 25, 20}
	for i := range spans {
		if wall[i] != wantWall[i] || cpu[i] != wantCPU[i] {
			t.Errorf("span %s: self %d/%d, want %d/%d", spans[i].Name, wall[i], cpu[i], wantWall[i], wantCPU[i])
		}
	}
	if st := aggregate(spans); st.unattributed != 0.2 || st.selfNs["b"] != 30 {
		t.Errorf("aggregate: unattributed %v, b self %d", st.unattributed, st.selfNs["b"])
	}
}
