package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func rng() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

func TestCategoricalShares(t *testing.T) {
	c := NewCategorical([]float64{1, 3, 6})
	r := rng()
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d: share %.3f, want %.3f", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, ws := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCategorical(%v) did not panic", ws)
				}
			}()
			NewCategorical(ws)
		}()
	}
}

func TestStringSampler(t *testing.T) {
	s := NewStringSampler([]WeightedString{{Key: "a", Weight: 1}, {Key: "b", Weight: 0}})
	r := rng()
	for i := 0; i < 1000; i++ {
		if s.Sample(r) != "a" {
			t.Fatal("zero-weight key sampled")
		}
	}
}

func TestZipfSupport(t *testing.T) {
	z := NewZipf(1.2, 50)
	r := rng()
	for i := 0; i < 10000; i++ {
		v := z.Sample(r)
		if v < 1 || v > 50 {
			t.Fatalf("zipf sample %d outside [1,50]", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1.5, 1000)
	r := rng()
	ones := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if z.Sample(r) == 1 {
			ones++
		}
	}
	// With s=1.5 over [1,1000], P(1) ~ 1/zeta(1.5 truncated) ~ 0.38.
	if frac := float64(ones) / n; frac < 0.30 || frac > 0.48 {
		t.Errorf("P(X=1) = %.3f, want ~0.38", frac)
	}
}

func TestZipfWithMeanHitsTarget(t *testing.T) {
	r := rng()
	for _, tc := range []struct {
		target float64
		n      int
	}{
		{2.5, 100}, {9.5, 4000}, {29.4, 29999}, {7.4, 3000},
	} {
		z := ZipfWithMean(tc.target, tc.n)
		var sum float64
		const n = 300000
		for i := 0; i < n; i++ {
			sum += float64(z.Sample(r))
		}
		mean := sum / n
		if mean < tc.target*0.8 || mean > tc.target*1.25 {
			t.Errorf("ZipfWithMean(%v, %d): empirical mean %.2f", tc.target, tc.n, mean)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := rng()
	for _, mean := range []float64{0.5, 4, 30, 200} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(Poisson(r, mean))
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.1 {
			t.Errorf("Poisson(%v): empirical mean %.2f", mean, got)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := rng()
	f := func(m uint8) bool {
		return Poisson(r, float64(m)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMean(t *testing.T) {
	r := rng()
	for _, p := range []float64{0.12, 0.5, 0.9} {
		var sum float64
		const n = 100000
		for i := 0; i < n; i++ {
			sum += float64(Geometric(r, p))
		}
		want := (1 - p) / p
		got := sum / n
		if math.Abs(got-want) > want*0.05+0.02 {
			t.Errorf("Geometric(%v): empirical mean %.3f, want %.3f", p, got, want)
		}
	}
}

func TestGeometricOne(t *testing.T) {
	r := rng()
	for i := 0; i < 100; i++ {
		if Geometric(r, 1) != 0 {
			t.Fatal("Geometric(1) must be 0")
		}
	}
}

func TestLogNormalIntClamps(t *testing.T) {
	r := rng()
	for i := 0; i < 10000; i++ {
		v := LogNormalInt(r, 5, 2, 2, 257)
		if v < 2 || v > 257 {
			t.Fatalf("LogNormalInt out of range: %d", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := rng()
	for i := 0; i < 100; i++ {
		if Bernoulli(r, 0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !Bernoulli(r, 1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}
