package lda

import (
	"math/rand/v2"
	"strings"
	"testing"

	"msgscope/internal/analysis/textproc"
)

// synthCorpus builds documents from two disjoint vocabularies so the model
// has a clean planted structure to recover.
func synthCorpus(nDocs int) *textproc.Corpus {
	topicA := []string{"bitcoin", "crypto", "wallet", "trading", "profit"}
	topicB := []string{"hentai", "anime", "server", "gaming", "nitro"}
	rng := rand.New(rand.NewPCG(1, 9))
	var texts []string
	for i := 0; i < nDocs; i++ {
		pool := topicA
		if i%2 == 1 {
			pool = topicB
		}
		var words []string
		for j := 0; j < 12; j++ {
			words = append(words, pool[rng.IntN(len(pool))])
		}
		texts = append(texts, strings.Join(words, " "))
	}
	return textproc.NewCorpus(textproc.NewTokenizer(), texts)
}

// mixedCorpus builds a messier corpus than synthCorpus: overlapping word
// pools, varying document lengths, a few empty documents — the shapes the
// chunked sampler bookkeeping has to survive.
func mixedCorpus(nDocs int) *textproc.Corpus {
	pools := [][]string{
		{"bitcoin", "crypto", "wallet", "trading", "profit", "signal"},
		{"anime", "server", "gaming", "nitro", "discord", "signal"},
		{"invite", "group", "link", "join", "telegram", "wallet"},
	}
	rng := rand.New(rand.NewPCG(7, 11))
	var texts []string
	for i := 0; i < nDocs; i++ {
		if i%17 == 0 {
			texts = append(texts, "")
			continue
		}
		pool := pools[i%len(pools)]
		n := 3 + rng.IntN(20)
		var words []string
		for j := 0; j < n; j++ {
			words = append(words, pool[rng.IntN(len(pool))])
		}
		texts = append(texts, strings.Join(words, " "))
	}
	return textproc.NewCorpus(textproc.NewTokenizer(), texts)
}

func TestFitRecoversPlantedTopics(t *testing.T) {
	c := synthCorpus(200)
	m := Fit(c, Config{Topics: 2, Iterations: 80, Seed: 3})
	// Each topic's top words must come from a single planted vocabulary.
	aSet := map[string]bool{"bitcoin": true, "crypto": true, "wallet": true, "trading": true, "profit": true}
	for k := 0; k < 2; k++ {
		top := m.TopWords(k, 3)
		inA := 0
		for _, w := range top {
			if aSet[w] {
				inA++
			}
		}
		if inA != 0 && inA != len(top) {
			t.Fatalf("topic %d mixes planted vocabularies: %v", k, top)
		}
	}
	// Shares should be roughly balanced.
	shares := m.TopicShares()
	for k, s := range shares {
		if s < 0.3 || s > 0.7 {
			t.Fatalf("topic %d share %.2f, want ~0.5", k, s)
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	c1 := synthCorpus(60)
	c2 := synthCorpus(60)
	m1 := Fit(c1, Config{Topics: 2, Iterations: 30, Seed: 7})
	m2 := Fit(c2, Config{Topics: 2, Iterations: 30, Seed: 7})
	for k := 0; k < 2; k++ {
		a := strings.Join(m1.TopWords(k, 5), ",")
		b := strings.Join(m2.TopWords(k, 5), ",")
		if a != b {
			t.Fatalf("topic %d differs across identical fits: %q vs %q", k, a, b)
		}
	}
}

func TestFitCountInvariants(t *testing.T) {
	c := synthCorpus(50)
	m := Fit(c, Config{Topics: 3, Iterations: 20, Seed: 1})
	K := m.cfg.Topics
	var total int
	for _, doc := range c.Docs {
		total += len(doc)
	}
	// Sum of topic counts equals total tokens.
	var nt int
	for k := 0; k < K; k++ {
		nt += m.nt[k]
	}
	if nt != total {
		t.Fatalf("topic counts %d != tokens %d", nt, total)
	}
	// Per-document counts match document lengths.
	for d, doc := range c.Docs {
		var nd int
		for k := 0; k < K; k++ {
			nd += m.ndt[d*K+k]
		}
		if nd != len(doc) {
			t.Fatalf("doc %d counts %d != len %d", d, nd, len(doc))
		}
	}
	// Per-word counts match word frequencies.
	freq := map[int]int{}
	for _, doc := range c.Docs {
		for _, w := range doc {
			freq[w]++
		}
	}
	for w, want := range freq {
		var got int
		for k := 0; k < K; k++ {
			got += m.nwt[w*K+k]
		}
		if got != want {
			t.Fatalf("word %d counts %d != freq %d", w, got, want)
		}
	}
}

func TestPerplexityImprovesOverUntrained(t *testing.T) {
	c := synthCorpus(150)
	trained := Fit(c, Config{Topics: 2, Iterations: 60, Seed: 2})
	untrained := Fit(synthCorpus(150), Config{Topics: 2, Iterations: 0, Seed: 2})
	// Iterations=0 falls back to the default (200); build a truly
	// untrained model with 1 iteration instead.
	almostUntrained := Fit(synthCorpus(150), Config{Topics: 2, Iterations: 1, Seed: 2})
	if trained.Perplexity() >= almostUntrained.Perplexity() {
		t.Fatalf("training did not reduce perplexity: %.2f vs %.2f",
			trained.Perplexity(), almostUntrained.Perplexity())
	}
	_ = untrained
}

func TestTopicWordProbNormalized(t *testing.T) {
	c := synthCorpus(40)
	m := Fit(c, Config{Topics: 2, Iterations: 10, Seed: 4})
	for k := 0; k < 2; k++ {
		var sum float64
		for w := 0; w < c.Vocab.Size(); w++ {
			sum += m.TopicWordProb(k, w)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("topic %d word probs sum to %v", k, sum)
		}
	}
}

func TestSummariesSortedByShare(t *testing.T) {
	c := synthCorpus(80)
	m := Fit(c, Config{Topics: 4, Iterations: 20, Seed: 5})
	sums := m.Summaries(5)
	if len(sums) != 4 {
		t.Fatalf("got %d summaries", len(sums))
	}
	for i := 1; i < len(sums); i++ {
		if sums[i].Share > sums[i-1].Share {
			t.Fatal("summaries not sorted by share")
		}
	}
	if !strings.Contains(sums[0].String(), "topic") {
		t.Fatal("summary String() malformed")
	}
}

func TestEmptyCorpus(t *testing.T) {
	c := textproc.NewCorpus(textproc.NewTokenizer(), nil)
	m := Fit(c, Config{Topics: 2, Iterations: 5, Seed: 6})
	if m.Perplexity() != 0 {
		t.Fatal("empty corpus perplexity should be 0")
	}
	if shares := m.TopicShares(); shares[0] != 0 || shares[1] != 0 {
		t.Fatal("empty corpus shares should be 0")
	}
}

func TestCoherencePrefersRealTopics(t *testing.T) {
	c := synthCorpus(200)
	good := Fit(c, Config{Topics: 2, Iterations: 80, Seed: 3})
	// A barely-trained model has scrambled topics mixing both vocabularies.
	bad := Fit(synthCorpus(200), Config{Topics: 2, Iterations: 1, Seed: 4})
	gc := good.MeanCoherence(c, 5)
	bc := bad.MeanCoherence(c, 5)
	if gc <= bc {
		t.Fatalf("trained coherence %.3f not better than untrained %.3f", gc, bc)
	}
	if gc > 0 {
		t.Fatalf("UMass coherence must be <= 0, got %.3f", gc)
	}
}

func TestCoherenceDegenerate(t *testing.T) {
	c := synthCorpus(10)
	m := Fit(c, Config{Topics: 2, Iterations: 5, Seed: 1})
	if got := m.Coherence(c, 0, 1); got != 0 {
		t.Fatalf("single-word coherence = %v, want 0", got)
	}
	empty := textproc.NewCorpus(textproc.NewTokenizer(), nil)
	me := Fit(empty, Config{Topics: 2, Iterations: 2, Seed: 1})
	if got := me.MeanCoherence(empty, 5); got != 0 {
		t.Fatalf("empty-corpus coherence = %v, want 0", got)
	}
}

func TestParseSampler(t *testing.T) {
	for _, name := range []string{"", "dense", "alias"} {
		if s, err := ParseSampler(name); err != nil || string(s) != name {
			t.Errorf("ParseSampler(%q) = %q, %v", name, s, err)
		}
	}
	// "sparse" named a kernel that no longer exists; it must not silently
	// fall through to the default.
	for _, name := range []string{"sparse", "Alias", "bogus"} {
		_, err := ParseSampler(name)
		if err == nil {
			t.Fatalf("ParseSampler(%q) accepted an unknown kernel", name)
		}
		for _, want := range []string{"dense", "alias"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseSampler(%q) error %q does not name %q", name, err, want)
			}
		}
	}
}
