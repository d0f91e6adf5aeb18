package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	}
	for _, c := range cases {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", samples, c.p, got, c.want)
		}
	}
	// 1..100: the p-th percentile is exactly p.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, p := range []float64{1, 50, 90, 99, 100} {
		if got := percentile(hundred, p); got != p {
			t.Errorf("percentile(1..100, %v) = %v", p, got)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50}, {5, 50}, {20, 50}, {40, 75}, {50, 80}, {100, 90}, {50_000, 90},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Ten samples always lie above the reported tail once n > 20.
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p := tail(xs)
	if p != 75 || v != 30 {
		t.Errorf("tail(1..40) = %v at p%v, want 30 at p75", v, p)
	}
}
