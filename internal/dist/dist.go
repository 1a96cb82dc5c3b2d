// Package dist provides the random samplers the world generator draws from:
// weighted categorical choices, discrete power laws (Zipf), log-normals,
// exponentials, and bounded random walks. All samplers take an explicit
// *rand.Rand so the simulation stays deterministic under a single seed.
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Categorical samples indexes proportionally to the given non-negative
// weights. Construct with NewCategorical.
type Categorical struct {
	cum []float64 // cumulative weights
}

// NewCategorical builds a sampler over weights. It panics if no weight is
// positive or any weight is negative: a silently empty categorical would
// skew every calibrated share downstream.
func NewCategorical(weights []float64) *Categorical {
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("dist: negative or NaN weight %v at %d", w, i))
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("dist: categorical with no positive weight")
	}
	return &Categorical{cum: cum}
}

// Sample returns a weighted random index.
func (c *Categorical) Sample(rng *rand.Rand) int {
	u := rng.Float64() * c.cum[len(c.cum)-1]
	return sort.SearchFloat64s(c.cum, math.Nextafter(u, math.Inf(1)))
}

// WeightedString pairs a label with a weight, for calibrated share tables
// (languages, countries, topics, linked platforms).
type WeightedString struct {
	Key    string
	Weight float64
}

// StringSampler samples labels proportionally to their weights.
type StringSampler struct {
	keys []string
	cat  *Categorical
}

// NewStringSampler builds a StringSampler from entries.
func NewStringSampler(entries []WeightedString) *StringSampler {
	keys := make([]string, len(entries))
	ws := make([]float64, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
		ws[i] = e.Weight
	}
	return &StringSampler{keys: keys, cat: NewCategorical(ws)}
}

// Sample returns a weighted random label.
func (s *StringSampler) Sample(rng *rand.Rand) string {
	return s.keys[s.cat.Sample(rng)]
}

// Keys returns the labels in declaration order.
func (s *StringSampler) Keys() []string { return s.keys }

// Zipf samples integers in [1, n] with P(k) ∝ 1/k^s. It precomputes the
// cumulative distribution, so sampling is O(log n).
type Zipf struct {
	cum []float64
}

// NewZipf builds a Zipf sampler with exponent s over support [1, n].
func NewZipf(s float64, n int) *Zipf {
	if n < 1 {
		panic("dist: zipf needs n >= 1")
	}
	cum := make([]float64, n)
	var total float64
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -s)
		cum[k-1] = total
	}
	return &Zipf{cum: cum}
}

// Sample returns a value in [1, n].
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, math.Nextafter(u, math.Inf(1))) + 1
}

// LogNormal samples exp(N(mu, sigma^2)).
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// LogNormalInt samples a log-normal rounded to an int, clamped to [lo, hi].
func LogNormalInt(rng *rand.Rand, mu, sigma float64, lo, hi int) int {
	v := int(math.Round(LogNormal(rng, mu, sigma)))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// Exponential samples an exponential with the given mean.
func Exponential(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p
}

// Poisson samples a Poisson random variable with the given mean using
// Knuth's method for small means and a normal approximation for large ones.
func Poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction; adequate for
		// workload generation at this scale.
		v := int(math.Round(rng.NormFloat64()*math.Sqrt(mean) + mean))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Geometric samples the number of failures before the first success of a
// Bernoulli(p) sequence (support {0,1,2,...}). p must be in (0, 1].
func Geometric(rng *rand.Rand, p float64) int {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("dist: geometric p=%v out of range", p))
	}
	if p == 1 {
		return 0
	}
	u := rng.Float64()
	return int(math.Floor(math.Log(1-u) / math.Log(1-p)))
}
