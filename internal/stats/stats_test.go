package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Mean", Mean(xs), 5, 1e-12)
	approx(t, "Variance", Variance(xs), 32.0/7.0, 1e-12)
	approx(t, "StdDev", StdDev(xs), math.Sqrt(32.0/7.0), 1e-12)
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty input should give zeros")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("singleton variance should be 0")
	}
	if Max(nil) != 0 {
		t.Fatal("empty max should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 {
		t.Fatalf("Max=%v", Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	approx(t, "P0", Percentile(xs, 0), 1, 0)
	approx(t, "P50", Percentile(xs, 50), 3, 0)
	approx(t, "P100", Percentile(xs, 100), 5, 0)
	approx(t, "P25", Percentile(xs, 25), 2, 1e-12)
	approx(t, "P90", Percentile(xs, 90), 4.6, 1e-12)
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestSummarize(t *testing.T) {
	// Three replicates, like the paper.
	xs := []float64{10, 12, 14}
	s := Summarize(xs)
	if s.N != 3 {
		t.Fatalf("N = %d", s.N)
	}
	approx(t, "Mean", s.Mean, 12, 1e-12)
	approx(t, "StdDev", s.StdDev, 2, 1e-12)
	// t(df=2, 95%) = 4.303; CI = 4.303*2/sqrt(3)
	approx(t, "CI95", s.CI95, 4.303*2/math.Sqrt(3), 1e-9)
	approx(t, "Lo", s.Lo(), s.Mean-s.CI95, 0)
	approx(t, "Hi", s.Hi(), s.Mean+s.CI95, 0)
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{5})
	if s.CI95 != 0 {
		t.Fatalf("singleton CI should be 0, got %v", s.CI95)
	}
}

func TestTCritical95(t *testing.T) {
	if !math.IsInf(TCritical95(0), 1) {
		t.Fatal("df=0 should be +Inf")
	}
	approx(t, "df=1", TCritical95(1), 12.706, 0)
	approx(t, "df=29", TCritical95(29), 2.045, 0)
	approx(t, "df=1000", TCritical95(1000), 1.96, 0)
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "r", r, 1, 1e-12)

	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "r", r, -1, 1e-12)
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want insufficient data error")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("want zero variance error")
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 10000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.05 {
		t.Fatalf("independent samples correlated: r=%v", r)
	}
}

func TestCorrelationSignificant(t *testing.T) {
	// Strong correlation over few points: the paper's 5-implementation
	// +74% correlation over 15 samples is significant at 95%.
	if !CorrelationSignificant(0.74, 15, 0.95) {
		t.Error("r=0.74 n=15 should be significant at 95%")
	}
	if CorrelationSignificant(0.1, 5, 0.95) {
		t.Error("r=0.1 n=5 should not be significant")
	}
	if !CorrelationSignificant(0.9, 21, 0.99) {
		t.Error("r=0.9 n=21 should be significant at 99%")
	}
	if CorrelationSignificant(0.5, 3, 0.99) {
		t.Error("weak r over 3 points should not be significant at 99%")
	}
}

func TestRelativeChange(t *testing.T) {
	approx(t, "drop", RelativeChange(100, 80), -0.2, 1e-12)
	approx(t, "rise", RelativeChange(80, 100), 0.25, 1e-12)
	if RelativeChange(0, 5) != 0 {
		t.Fatal("zero base should give 0")
	}
}

// Property: Pearson is symmetric and invariant under positive affine
// transforms.
func TestPropertyPearsonInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i]*0.5 + rng.NormFloat64()
		}
		r1, err1 := Pearson(xs, ys)
		r2, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		// Affine transform of x.
		tx := make([]float64, n)
		for i := range xs {
			tx[i] = 3*xs[i] + 7
		}
		r3, err3 := Pearson(tx, ys)
		if err3 != nil {
			return false
		}
		return math.Abs(r1-r2) < 1e-9 && math.Abs(r1-r3) < 1e-9 && r1 >= -1-1e-12 && r1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sample mean lies within [min, Max].
func TestPropertyMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // skip pathological inputs
			}
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
