package main

import "slices"

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank percentile of xs at permille
// thousandths (500 is the median, 1000 the maximum).
func percentile(xs []float64, permille int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(rank(permille, len(s)), 1)-1]
}

// rank is the 1-based nearest rank of a percentile among n samples,
// ceil(permille*n/1000) in integers so no rounding moves it.
func rank(permille, n int) int { return (permille*n + 999) / 1000 }

// tailLadder lists the percentiles tailPercentile may report, lowest
// first, in thousandths.
var tailLadder = []int{500, 750, 900, 950, 980, 990, 995, 999}

// tail is the highest well-sampled percentile of a set of samples.
type tail struct {
	pct   float64 // in percent; 0 when fewer than 20 samples exist
	value float64
	n     int // sample count
}

// tailPercentile picks the highest percentile of tailLadder that leaves at
// least ten samples above its rank, and returns it with its value and the
// sample count. With under 20 samples not even the median qualifies, and
// pct and value read 0.
func tailPercentile(xs []float64) tail {
	t := tail{n: len(xs)}
	for _, p := range tailLadder {
		if t.n-rank(p, t.n) < 10 {
			break
		}
		t.pct, t.value = float64(p)/10, percentile(xs, p)
	}
	return t
}

// recordsPerSecond is rows stored per second of collection.
func recordsPerSecond(rows int, collectSeconds float64) float64 {
	if collectSeconds <= 0 {
		return 0
	}
	return float64(rows) / collectSeconds
}

// deferrals counts, for one study, the operations that used up their
// retry budget against the operations attempted.
type deferrals struct {
	// Deferred: probes, joins or collections, and hourly search queries.
	monitor, join, search int
	// Attempted: probes, join attempts, per-group collections (one per
	// joined group) and hourly search queries.
	probes, joins, collections, searches int
}

// fraction is the failure share: deferred operations over attempted ones.
func (d deferrals) fraction() float64 {
	attempted := d.probes + d.joins + d.collections + d.searches
	if attempted == 0 {
		return 0
	}
	return float64(d.monitor+d.join+d.search) / float64(attempted)
}
