package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		pct   float64
		value float64
	}{
		{912, 98, 894}, // a 38-day study: 18 samples above p98, 9 above p99
		{240, 95, 228}, // a 10-day study: 12 above p95, 4 above p98
		{720, 98, 706}, // three 10-day studies pooled
		{20, 50, 10},   // the smallest count with ten above the median
		{19, 0, 0},     // too few for any percentile
		{0, 0, 0},
	} {
		got := tailPercentile(seq(tc.n))
		if got.pct != tc.pct || got.value != tc.value || got.n != tc.n {
			t.Errorf("tailPercentile(%d samples) = %+v, want pct %v value %v n %d",
				tc.n, got, tc.pct, tc.value, tc.n)
		}
		if got.pct > 0 {
			if above := tc.n - int(got.value); above < 10 {
				t.Errorf("%d samples: only %d above p%v", tc.n, above, got.pct)
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := seq(10)
	if got := percentile(xs, 500); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if got := percentile(xs, 1000); got != 10 {
		t.Errorf("max of 1..10 = %v, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %v, want 2", got)
	}
	if xs[0] != 10 {
		t.Error("median sorted its input in place")
	}
}

func TestDeferredFraction(t *testing.T) {
	d := deferrals{
		monitor: 26, join: 1, search: 2,
		probes: 71000, joins: 20, collections: 14, searches: 912 * 6,
	}
	want := 29.0 / float64(71000+20+14+912*6)
	if got := d.fraction(); math.Abs(got-want) > 1e-15 {
		t.Errorf("fraction = %v, want %v", got, want)
	}
	if got := (deferrals{}).fraction(); got != 0 {
		t.Errorf("fraction with nothing attempted = %v, want 0", got)
	}
}

func TestRecordsPerSecond(t *testing.T) {
	if got := recordsPerSecond(1500, 3); got != 500 {
		t.Errorf("recordsPerSecond(1500, 3) = %v, want 500", got)
	}
	if got := recordsPerSecond(10, 0); got != 0 {
		t.Errorf("recordsPerSecond with no collection time = %v, want 0", got)
	}
}
