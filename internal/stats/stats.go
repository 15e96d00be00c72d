// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics, Student-t 95% confidence
// intervals, Pearson correlation, and simple linear regression.
//
// The paper (§III-B, §VI) reports every metric as a mean over 3
// replicates with a 95% confidence interval, and argues its central
// claim through the correlation between wakeups/s and power. This
// package reproduces those computations.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a computation needs more samples
// than were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the largest element; 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks. The input need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// tTable95 holds two-sided 97.5% Student-t critical values by degrees of
// freedom (index = df). Values beyond the table fall back to the normal
// approximation 1.96. df=0 is unusable and mapped to +Inf.
var tTable95 = []float64{
	math.Inf(1),
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func TCritical95(df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(tTable95) {
		return tTable95[df]
	}
	return 1.96
}

// Summary describes a sample with its 95% confidence interval, matching
// how the paper reports each measured metric.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64 // half-width of the 95% confidence interval
}

// Summarize computes a Summary over the replicate values xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs)}
	if s.N >= 2 {
		s.CI95 = TCritical95(s.N-1) * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// Lo returns the lower bound of the 95% CI.
func (s Summary) Lo() float64 { return s.Mean - s.CI95 }

// Hi returns the upper bound of the 95% CI.
func (s Summary) Hi() float64 { return s.Mean + s.CI95 }

// Pearson returns the Pearson product-moment correlation coefficient of
// the paired samples, in [-1, 1]. It returns an error if fewer than two
// pairs are supplied, the slices differ in length, or either series has
// zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: series length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// CorrelationSignificant reports whether a correlation r over n pairs is
// significantly different from zero at the given two-sided t critical
// value for n-2 degrees of freedom, using the standard
// t = r·sqrt((n-2)/(1-r²)) test. The paper runs exactly this hypothesis
// test ("wakeups have a significant effect on power", accepted at 99%
// confidence); we expose the 95% and 99% variants.
func CorrelationSignificant(r float64, n int, confidence float64) bool {
	if n < 3 || math.Abs(r) >= 1 {
		return math.Abs(r) >= 1 && n >= 2
	}
	t := math.Abs(r) * math.Sqrt(float64(n-2)/(1-r*r))
	df := n - 2
	var crit float64
	switch {
	case confidence >= 0.99:
		crit = tCritical99(df)
	default:
		crit = TCritical95(df)
	}
	return t > crit
}

// tTable99 holds two-sided 99.5% Student-t critical values (for 99%
// confidence), indexed by degrees of freedom.
var tTable99 = []float64{
	math.Inf(1),
	63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
	3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
}

func tCritical99(df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(tTable99) {
		return tTable99[df]
	}
	return 2.576
}

// RelativeChange returns (to-from)/from, the signed fractional change
// used throughout the paper ("lowers power consumption by 20%" is a
// RelativeChange of -0.20). It returns 0 when from is 0.
func RelativeChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return (to - from) / from
}
