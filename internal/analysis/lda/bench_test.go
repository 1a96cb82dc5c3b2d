package lda

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"msgscope/internal/analysis/textproc"
)

// benchCorpus approximates the Table 3 workload: a few thousand short
// tweet-like documents over a vocabulary of thousands of words, with
// Zipf-skewed frequencies concentrated per latent topic. Vocabulary shape
// matters for this comparison — the alias tables and word rows scale with
// V·K, so a toy corpus where every word occurs in every topic would
// misstate the kernel's cache footprint.
func benchCorpus() *textproc.Corpus { return benchCorpusShape(400, 4000) }

// benchCorpusShape builds the tweet-shaped corpus at a chosen vocabulary
// (10 latent pools × poolSize words) and document count, so the sweep
// bench can vary vocabulary independently of the model's K.
func benchCorpusShape(poolSize, nDocs int) *textproc.Corpus {
	const latent = 10
	pools := make([][]string, latent)
	for t := range pools {
		pool := make([]string, poolSize)
		for j := range pool {
			pool[j] = fmt.Sprintf("tw%dx%d", t, j)
		}
		pools[t] = pool
	}
	rng := rand.New(rand.NewPCG(21, 4))
	texts := make([]string, nDocs)
	for i := range texts {
		pool := pools[i%latent]
		n := 8 + rng.IntN(13)
		words := make([]string, n)
		for j := range words {
			// A log-uniform rank draw approximates the Zipfian token
			// frequencies of real tweet text.
			r := rng.Float64()
			words[j] = pool[int(math.Exp(r*math.Log(float64(poolSize))))-1]
		}
		texts[i] = strings.Join(words, " ")
	}
	return textproc.NewCorpus(textproc.NewTokenizer(), texts)
}

// corpusTokens counts the token instances one Gibbs sweep visits.
func corpusTokens(c *textproc.Corpus) int {
	n := 0
	for _, d := range c.Docs {
		n += len(d)
	}
	return n
}

// benchFit times Fit and reports sampling throughput as a tok/s custom
// metric — token draws (tokens × iterations) per wall second — so
// cmd/benchjson's bench-compare gates throughput directly ("/s" metrics
// are higher-is-better there; a drop beyond tolerance fails the gate).
func benchFit(b *testing.B, c *textproc.Corpus, cfg Config) {
	b.Helper()
	draws := float64(corpusTokens(c)) * float64(cfg.withDefaults().Iterations)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(c, cfg)
	}
	b.ReportMetric(draws*float64(b.N)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkLDAFit compares the dense reference sampler against the
// default alias-table MH sampler (serially and in parallel) at the paper's
// Table 3 config (K=10, 200 iterations). cmd/benchjson derives a
// serial-vs-parallel speedup from the sub-benchmark names, per GOMAXPROCS
// count when run under its -cpus matrix mode.
func BenchmarkLDAFit(b *testing.B) {
	c := benchCorpus()
	cfg := Config{Topics: 10, Iterations: 200, Seed: 42}
	b.Run("dense", func(b *testing.B) {
		d := cfg
		d.Sampler = SamplerDense
		benchFit(b, c, d)
	})
	b.Run("serial", func(b *testing.B) {
		s := cfg
		s.Workers = 1
		benchFit(b, c, s)
	})
	b.Run("parallel", func(b *testing.B) {
		benchFit(b, c, cfg)
	})
}

// BenchmarkLDASweep scales the kernel comparison across K ∈ {10, 25, 50}
// and two vocabulary sizes (4K and 16K words). The dense chain's per-token
// cost is Θ(K) and vocabulary-independent; the alias sampler's draw is
// O(1), so its win should widen with K — the shape longitudinal corpora
// (TeleScope-scale) put on the kernel. Iterations are shortened: the
// sweep gates scaling ratios, not converged models.
func BenchmarkLDASweep(b *testing.B) {
	for _, shape := range []struct {
		pool int
		name string
	}{{400, "V4000"}, {1600, "V16000"}} {
		c := benchCorpusShape(shape.pool, 2000)
		for _, k := range []int{10, 25, 50} {
			cfg := Config{Topics: k, Iterations: 50, Seed: 42, Workers: 1}
			for _, s := range []Sampler{SamplerDense, SamplerAlias} {
				b.Run(fmt.Sprintf("K%d/%s/%s", k, shape.name, s), func(b *testing.B) {
					cc := cfg
					cc.Sampler = s
					benchFit(b, c, cc)
				})
			}
		}
	}
}
