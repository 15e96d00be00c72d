package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose range contains it, with
	// the documented ≤ 1/16 relative width.
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<62 + 12345}
	for i := 0; i < 10000; i++ {
		vals = append(vals, rand.Int63())
	}
	for _, v := range vals {
		idx := bucketIndex(v)
		up := bucketUpper(idx)
		if up < v {
			t.Fatalf("value %d maps to bucket %d with upper %d < value", v, idx, up)
		}
		if v >= linear && up-v > v/16 {
			t.Fatalf("value %d: bucket upper %d exceeds 1/16 relative error", v, up)
		}
		if idx > 0 && bucketUpper(idx-1) >= v {
			t.Fatalf("value %d should be in bucket %d, but bucket %d also covers it", v, idx, idx-1)
		}
	}
}

// TestQuantileBounds: for any sample set, Quantile(q) must be ≥ the true
// quantile and within the bucket resolution (1/16 relative) above it.
func TestQuantileBounds(t *testing.T) {
	prop := func(raw []uint32, qSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		qs := []float64{0.5, 0.95, 0.99, 1.0}
		q := qs[int(qSel)%len(qs)]
		// true q-quantile: smallest v with rank ≥ ceil(q*n)
		rank := int(q * float64(len(vals)))
		if float64(rank) < q*float64(len(vals)) {
			rank++
		}
		if rank < 1 {
			rank = 1
		}
		truth := vals[rank-1]
		got := h.Quantile(q)
		if got < truth {
			t.Logf("Quantile(%v) = %d below true quantile %d", q, got, truth)
			return false
		}
		bound := truth + truth/16
		if truth < linear {
			bound = truth // exact range
		}
		if got > bound && got > h.Max() {
			t.Logf("Quantile(%v) = %d exceeds bound %d (truth %d)", q, got, bound, truth)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeAssociative: (a ∪ b) ∪ c and a ∪ (b ∪ c) must agree on every
// observable (count, sum, max, all quantiles via identical buckets).
func TestMergeAssociative(t *testing.T) {
	build := func(raw []uint32) *Histogram {
		h := NewHistogram()
		for _, r := range raw {
			h.Record(int64(r))
		}
		return h
	}
	equal := func(x, y *Histogram) bool {
		if x.Count() != y.Count() || x.Sum() != y.Sum() || x.Max() != y.Max() {
			return false
		}
		for i := 0; i < nBuckets; i++ {
			if x.counts[i].Load() != y.counts[i].Load() {
				return false
			}
		}
		return true
	}
	prop := func(ra, rb, rc []uint32) bool {
		left := NewHistogram()
		left.Merge(build(ra))
		left.Merge(build(rb))
		left.Merge(build(rc))

		bc := build(rb)
		bc.Merge(build(rc))
		right := build(ra)
		right.Merge(bc)
		return equal(left, right)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRecordConserved: N goroutines recording concurrently
// must conserve total count and sum (run under -race in make verify).
func TestConcurrentRecordConserved(t *testing.T) {
	h := NewHistogram()
	const workers = 8
	const per = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var bucketTotal uint64
	for i := 0; i < nBuckets; i++ {
		bucketTotal += h.counts[i].Load()
	}
	if bucketTotal != workers*per {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*per)
	}
	if h.Max() <= 0 || h.Sum() <= 0 {
		t.Fatalf("max=%d sum=%d, want positive", h.Max(), h.Sum())
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	h.Record(7)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Fatalf("single-value Quantile(%v) = %d, want 7", q, got)
		}
	}
	h2 := NewHistogram()
	h2.Record(1000000)
	// A single large value: quantile is capped at max, not the bucket
	// upper bound.
	if got := h2.Quantile(1); got != 1000000 {
		t.Fatalf("Quantile(1) = %d, want exact max 1000000", got)
	}
}

func TestCumulative(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 5, 40, 100, 5000} {
		h.Record(v)
	}
	bounds := []int64{10, 50, 1000}
	got := h.Cumulative(bounds)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	// Conservative: a bucket counts only when its whole range fits
	// under the bound, so counts may lag the true CDF but never exceed.
	truth := []uint64{2, 3, 4}
	for i, b := range bounds {
		if got[i] > truth[i] {
			t.Fatalf("Cumulative ≤ %d = %d exceeds true count %d", b, got[i], truth[i])
		}
	}
	if got[3] != 5 {
		t.Fatalf("+Inf bucket = %d, want total 5", got[3])
	}
	// Monotone non-decreasing.
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("cumulative counts not monotone: %v", got)
		}
	}
}

func TestRecordNegativeClamps(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Count() != 1 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("negative record: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
}

// RecordSince must leave the histogram exactly as a Record loop over
// the same latencies would, including the clamp of negative values.
func TestRecordSinceMatchesRecord(t *testing.T) {
	const now = 1_000_000
	stamps := []int64{now - 5, now - 31, now - 32, now - 999, now, now + 7, now - 123_456, now - 40}
	want, got := NewHistogram(), NewHistogram()
	for _, s := range stamps {
		want.Record(now - s)
	}
	got.RecordSince(now, stamps)
	got.RecordSince(now, nil)
	if got.Count() != want.Count() || got.Sum() != want.Sum() || got.Max() != want.Max() {
		t.Fatalf("RecordSince: count=%d sum=%d max=%d, want %d %d %d",
			got.Count(), got.Sum(), got.Max(), want.Count(), want.Sum(), want.Max())
	}
	for i := range want.counts {
		if got.counts[i].Load() != want.counts[i].Load() {
			t.Fatalf("bucket %d: %d, want %d", i, got.counts[i].Load(), want.counts[i].Load())
		}
	}
}
