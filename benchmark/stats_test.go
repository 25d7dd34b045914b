package main

import (
	"testing"
)

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantileOrZero(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := quantileOrZero(xs, 0.5); got != 49.5 {
		t.Errorf("p50 of 0..99 = %v, want 49.5", got)
	}
	if got := quantileOrZero(xs, 0.9); got < 89 || got > 90 {
		t.Errorf("p90 of 0..99 = %v, want about 89.1", got)
	}
	if got := quantileOrZero(xs, 0.99); got != 0 {
		t.Errorf("p99 of 100 samples = %v, want 0 (unsupported)", got)
	}
}

func TestSlaFracCountsFailuresAsMisses(t *testing.T) {
	ok := []float64{1, 2, 3, 11} // four answered, one of them late
	// Ten attempted: six never answered OK, so they miss the limit too.
	if got := slaFrac(ok, 10, 10); got != 0.3 {
		t.Errorf("slaFrac = %v, want 0.3", got)
	}
	if got := slaFrac(nil, 0, 10); got != 0 {
		t.Errorf("slaFrac with nothing attempted = %v, want 0", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}
