package main

import (
	"math"
	"testing"
)

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{450, 0.95},        // 22 samples beyond p95
		{200, 0.95},        // exactly ten beyond
		{199, 189.0 / 199}, // nine beyond p95: fall back to the quantile with ten beyond
		{100, 0.90},
		{21, 11.0 / 21},
		{20, 0.5}, // never below the median
		{3, 0.5},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailValue(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // unsorted input: 100..1
	}
	got, q := tail(v)
	if q != 0.9 {
		t.Fatalf("quantile %v, want 0.9", q)
	}
	if want := 90.1; math.Abs(got-want) > 1e-9 { // 1 + 0.9*99
		t.Errorf("tail = %v, want %v", got, want)
	}
	if m := median(v); m != 50.5 {
		t.Errorf("median = %v, want 50.5", m)
	}
}

// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
func TestIQRShareMatchesPython(t *testing.T) {
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	got, ok := iqrShare(v)
	if !ok || math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("iqrShare = %v, %v; want 1", got, ok)
	}
	if _, ok := iqrShare([]float64{1, 2, 3}); ok {
		t.Error("three values must give no spread")
	}
}
