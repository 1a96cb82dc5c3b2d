// Package lda implements Latent Dirichlet Allocation (Blei, Ng, Jordan
// 2003) with collapsed Gibbs sampling (Griffiths & Steyvers 2004) — the
// topic model the paper applies to English tweets to produce Table 3. Only
// the standard library is used.
package lda

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"msgscope/internal/analysis/textproc"
)

// Sampler names a Gibbs kernel. The empty string (SamplerAuto) picks the
// alias kernel for K ≤ 256 and the dense reference above.
type Sampler string

const (
	// SamplerAuto is the default routing: alias for K ≤ aliasMaxK, dense
	// otherwise.
	SamplerAuto Sampler = ""
	// SamplerDense is the O(K)-per-token exact-conditional reference
	// chain — the differential oracle of the alias kernel.
	SamplerDense Sampler = "dense"
	// SamplerAlias is the alias-table Metropolis–Hastings sampler
	// (alias.go): O(1) proposals from per-word alias tables, corrected by
	// an acceptance step.
	SamplerAlias Sampler = "alias"
)

// ParseSampler validates a sampler name from a flag or config file.
func ParseSampler(s string) (Sampler, error) {
	switch Sampler(s) {
	case SamplerAuto, SamplerDense, SamplerAlias:
		return Sampler(s), nil
	}
	return SamplerAuto, fmt.Errorf("lda: unknown sampler %q (want \"\", dense or alias)", s)
}

// Config parameterizes a model fit.
type Config struct {
	Topics     int     // K
	Alpha      float64 // document-topic prior (default 50/K)
	Beta       float64 // topic-word prior (default 0.01)
	Iterations int     // Gibbs sweeps (default 200)
	Seed       uint64
	// Workers bounds the alias sampler's sweep parallelism (0 =
	// GOMAXPROCS, 1 = serial); the dense chain is inherently sequential
	// and ignores it. The fitted model is byte-identical at any worker
	// count: documents are partitioned into fixed-size chunks with their
	// own RNG streams, and count updates merge at an iteration barrier
	// (see alias.go).
	Workers int
	// Sampler picks the Gibbs kernel; SamplerAuto (the zero value) routes
	// K ≤ 256 to alias and larger K to dense. Both target the same
	// collapsed posterior: dense draws the exact conditional, alias runs
	// a Metropolis–Hastings chain whose stationary distribution is that
	// conditional (converged perplexity and coherence parity against
	// dense is the gate, not float identity).
	Sampler Sampler
}

func (c Config) withDefaults() Config {
	if c.Topics <= 0 {
		c.Topics = 10
	}
	if c.Alpha <= 0 {
		c.Alpha = 50.0 / float64(c.Topics)
	}
	if c.Beta <= 0 {
		c.Beta = 0.01
	}
	if c.Iterations <= 0 {
		c.Iterations = 200
	}
	return c
}

// Model is a fitted LDA model.
type Model struct {
	cfg   Config
	vocab *textproc.Vocab
	docs  [][]int
	// z holds the topic assignment per token, flattened into one
	// contiguous arena: document d's assignments live at
	// z[docOff[d] : docOff[d]+docLen[d]]. One allocation for the whole
	// corpus instead of one per document, and the Gibbs sweep walks it
	// sequentially.
	z      []int
	docOff []int
	nwt    []int // word-topic counts, [w*K+k]
	ndt    []int // doc-topic counts, [d*K+k]
	nt     []int // tokens per topic
	docLen []int
}

// Fit runs collapsed Gibbs sampling over the corpus. The default sampler
// is the alias-table MH kernel (alias.go), deterministic at any
// Config.Workers; Config.Sampler selects the dense reference chain
// instead. K above the alias kernel's topic ceiling falls back to the
// dense path rather than failing.
func Fit(c *textproc.Corpus, cfg Config) *Model {
	cfg = cfg.withDefaults()
	if cfg.Sampler == SamplerDense || cfg.Topics > aliasMaxK {
		return fitDense(c, cfg)
	}
	return fitAlias(c, cfg)
}

// newModel allocates the count arrays shared by both samplers. Topic
// assignments are left at zero; each sampler runs its own random init.
func newModel(c *textproc.Corpus, cfg Config) *Model {
	K := cfg.Topics
	V := c.Vocab.Size()
	tokens := 0
	for _, doc := range c.Docs {
		tokens += len(doc)
	}
	m := &Model{
		cfg:    cfg,
		vocab:  c.Vocab,
		docs:   c.Docs,
		z:      make([]int, tokens),
		docOff: make([]int, len(c.Docs)),
		nwt:    make([]int, V*K),
		ndt:    make([]int, len(c.Docs)*K),
		nt:     make([]int, K),
		docLen: make([]int, len(c.Docs)),
	}
	off := 0
	for d, doc := range c.Docs {
		m.docOff[d] = off
		m.docLen[d] = len(doc)
		off += len(doc)
	}
	return m
}

// fitDense is the reference collapsed Gibbs sampler: one sequential chain,
// O(K) work and two divisions per topic per token.
func fitDense(c *textproc.Corpus, cfg Config) *Model {
	K := cfg.Topics
	V := c.Vocab.Size()
	m := newModel(c, cfg)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x1DA))

	// Random initialization.
	for d, doc := range c.Docs {
		zd := m.z[m.docOff[d]:]
		for i, w := range doc {
			k := rng.IntN(K)
			zd[i] = k
			m.nwt[w*K+k]++
			m.ndt[d*K+k]++
			m.nt[k]++
		}
	}

	p := make([]float64, K)
	for iter := 0; iter < cfg.Iterations; iter++ {
		for d, doc := range c.Docs {
			zd := m.z[m.docOff[d]:]
			for i, w := range doc {
				k := zd[i]
				m.nwt[w*K+k]--
				m.ndt[d*K+k]--
				m.nt[k]--

				var total float64
				for kk := 0; kk < K; kk++ {
					pw := (float64(m.nwt[w*K+kk]) + cfg.Beta) /
						(float64(m.nt[kk]) + cfg.Beta*float64(V))
					pd := float64(m.ndt[d*K+kk]) + cfg.Alpha
					total += pw * pd
					p[kk] = total
				}
				u := rng.Float64() * total
				k = sort.SearchFloat64s(p, u)
				if k >= K {
					k = K - 1
				}
				zd[i] = k
				m.nwt[w*K+k]++
				m.ndt[d*K+k]++
				m.nt[k]++
			}
		}
	}
	return m
}

// Topics returns K.
func (m *Model) Topics() int { return m.cfg.Topics }

// TopWords returns the n highest-probability words of a topic.
func (m *Model) TopWords(k, n int) []string {
	K := m.cfg.Topics
	type wc struct {
		w int
		c int
	}
	// Count first so the candidate slice is allocated exactly once.
	n2 := 0
	for w := 0; w < m.vocab.Size(); w++ {
		if m.nwt[w*K+k] > 0 {
			n2++
		}
	}
	ws := make([]wc, 0, n2)
	for w := 0; w < m.vocab.Size(); w++ {
		if c := m.nwt[w*K+k]; c > 0 {
			ws = append(ws, wc{w, c})
		}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].c != ws[j].c {
			return ws[i].c > ws[j].c
		}
		return ws[i].w < ws[j].w
	})
	if n > len(ws) {
		n = len(ws)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = m.vocab.Token(ws[i].w)
	}
	return out
}

// DocTopic returns the dominant topic of document d.
func (m *Model) DocTopic(d int) int {
	K := m.cfg.Topics
	best, bestN := 0, -1
	for k := 0; k < K; k++ {
		if n := m.ndt[d*K+k]; n > bestN {
			best, bestN = k, n
		}
	}
	return best
}

// TopicShares returns, per topic, the fraction of documents whose dominant
// topic it is (the "% of tweets matching each topic" of Table 3).
func (m *Model) TopicShares() []float64 {
	K := m.cfg.Topics
	counts := make([]int, K)
	for d := range m.docs {
		counts[m.DocTopic(d)]++
	}
	out := make([]float64, K)
	if len(m.docs) == 0 {
		return out
	}
	for k := 0; k < K; k++ {
		out[k] = float64(counts[k]) / float64(len(m.docs))
	}
	return out
}

// TopicWordProb returns phi[k][w], the smoothed word distribution of topic
// k over the whole vocabulary.
func (m *Model) TopicWordProb(k, w int) float64 {
	K := m.cfg.Topics
	V := m.vocab.Size()
	return (float64(m.nwt[w*K+k]) + m.cfg.Beta) /
		(float64(m.nt[k]) + m.cfg.Beta*float64(V))
}

// Perplexity computes the training-set perplexity — a sanity metric used in
// tests to check that fitting actually improves over a random assignment.
func (m *Model) Perplexity() float64 {
	K := m.cfg.Topics
	var logLik float64
	var tokens int
	for d, doc := range m.docs {
		nd := float64(m.docLen[d])
		for _, w := range doc {
			var pw float64
			for k := 0; k < K; k++ {
				theta := (float64(m.ndt[d*K+k]) + m.cfg.Alpha) /
					(nd + m.cfg.Alpha*float64(K))
				pw += theta * m.TopicWordProb(k, w)
			}
			logLik += log(pw)
			tokens++
		}
	}
	if tokens == 0 {
		return 0
	}
	return exp(-logLik / float64(tokens))
}

// Summary is one topic rendered for reporting.
type Summary struct {
	Topic int
	Share float64
	Words []string
}

// Summaries returns all topics with their shares and top words, sorted by
// descending share.
func (m *Model) Summaries(topN int) []Summary {
	shares := m.TopicShares()
	out := make([]Summary, m.cfg.Topics)
	for k := range out {
		out[k] = Summary{Topic: k, Share: shares[k], Words: m.TopWords(k, topN)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Share > out[j].Share })
	return out
}

// String renders a one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("topic %d (%.0f%%): %v", s.Topic, s.Share*100, s.Words)
}

// log and exp are tiny wrappers so the hot loop above reads cleanly.
func log(x float64) float64 { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }
