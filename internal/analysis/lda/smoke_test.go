package lda

import (
	"math"
	"testing"
)

// TestLDASamplerParitySmoke is the `make bench-lda` CI gate: fit both
// Gibbs kernels on a tiny corpus and require converged training
// perplexity within 10% of each other. Dense draws the exact conditional
// and alias is an MH chain over the same posterior, so alias drifting out
// of the dense oracle's basin is a sampler bug, not noise — the corpus is
// seeded and small enough that 80 sweeps converge both.
func TestLDASamplerParitySmoke(t *testing.T) {
	c := mixedCorpus(200)
	cfg := Config{Topics: 6, Iterations: 80, Seed: 42, Workers: 1}
	perp := map[Sampler]float64{}
	for _, s := range []Sampler{SamplerDense, SamplerAlias} {
		cc := cfg
		cc.Sampler = s
		perp[s] = Fit(c, cc).Perplexity()
		if perp[s] <= 1 || math.IsNaN(perp[s]) {
			t.Fatalf("%s sampler produced degenerate perplexity %v", s, perp[s])
		}
	}
	pd, pa := perp[SamplerDense], perp[SamplerAlias]
	t.Logf("perplexity: dense %.2f alias %.2f", pd, pa)
	if rel := math.Abs(pd-pa) / pd; rel > 0.10 {
		t.Errorf("dense vs alias perplexity diverges %.1f%%: %.2f vs %.2f", rel*100, pd, pa)
	}
}
