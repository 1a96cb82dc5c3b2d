package main

import "testing"

// TestStudiesFixedBySeconds pins how many studies a run holds: the count
// depends on --seconds alone.
func TestStudiesFixedBySeconds(t *testing.T) {
	for seconds, want := range map[int]int{30: 4, 24: 3, 1: 1, 60: 8} {
		if got := studies(seconds); got != want {
			t.Errorf("%d s: %d studies, want %d", seconds, got, want)
		}
	}
}
