package obs

import (
	"math/bits"
	"sync/atomic"
)

// Log-bucketed histogram geometry. Values (non-negative int64, for us
// nanoseconds) are indexed HDR-style: the first 2^subBits buckets are
// exact (one value each), and every octave above is split into
// 2^(subBits-1) sub-buckets, bounding the relative quantization error
// by 2^-(subBits-1) = 1/16.
const (
	subBits   = 5
	linear    = 1 << subBits       // exact buckets for values < 32
	perOctave = 1 << (subBits - 1) // sub-buckets per octave above
	// octaves above the linear range: values with bit length
	// subBits+1 … 64.
	octaves  = 64 - subBits
	nBuckets = linear + octaves*perOctave
)

// Histogram is a lock-free log-bucketed latency histogram. Record is a
// few atomic adds; Quantile answers within a relative error of 1/16
// (exact below 32); Merge adds bucket counts so histograms compose.
// The zero value is NOT ready; use NewHistogram.
type Histogram struct {
	counts [nBuckets]atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < linear {
		return int(u)
	}
	k := bits.Len64(u)          // v in [2^(k-1), 2^k), k > subBits
	top := u >> uint(k-subBits) // top subBits bits, in [perOctave, linear)
	return linear + (k-subBits-1)*perOctave + int(top) - perOctave
}

// bucketUpper is the largest value mapping to bucket i. For every
// recorded v, v ≤ bucketUpper(bucketIndex(v)) ≤ v + v/16.
func bucketUpper(i int) int64 {
	if i < linear {
		return int64(i)
	}
	o := (i - linear) / perOctave // octave number, 0-based
	s := (i - linear) % perOctave // sub-bucket within the octave
	shift := uint(o + 1)          // k - subBits for this octave
	lower := uint64(perOctave+s) << shift
	width := uint64(1) << shift
	return int64(lower + width - 1)
}

// Record adds one observation. Negative values clamp to zero. Safe for
// concurrent recorders; the total count is carried by the buckets
// alone, so it is conserved by construction.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(uint64(v))
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordSince records now−t for every stamp t (each clamped to zero,
// as in Record). The bucket counts are updated per value, but the sum
// and max take one atomic update for the whole batch. This is the
// drain path's recorder: it sees one batch of stamps per drain.
func (h *Histogram) RecordSince(now int64, stamps []int64) {
	if len(stamps) == 0 {
		return
	}
	var sum uint64
	var hi int64
	for _, t := range stamps {
		v := now - t
		if v < 0 {
			v = 0
		}
		h.counts[bucketIndex(v)].Add(1)
		sum += uint64(v)
		if v > hi {
			hi = v
		}
	}
	h.sum.Add(sum)
	for {
		cur := h.max.Load()
		if hi <= cur || h.max.CompareAndSwap(cur, hi) {
			return
		}
	}
}

// Count returns the number of recorded observations (a scan over the
// buckets — queries pay so that Record doesn't).
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := 0; i < nBuckets; i++ {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return int64(h.sum.Load()) }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1) of the
// recorded values: at most the true quantile plus 1/16 relative error,
// capped at Max. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(n))
	if uint64(q*float64(n)) < n && q*float64(n) > float64(target) {
		target++
	}
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := 0; i < nBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			upper := bucketUpper(i)
			if m := h.max.Load(); m < upper {
				return m
			}
			return upper
		}
	}
	return h.max.Load()
}

// Merge adds o's observations into h. Merging is bucket-wise addition,
// so it is associative and commutative up to atomic interleaving.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i := 0; i < nBuckets; i++ {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			return
		}
	}
}

// Cumulative returns, for each upper bound in bounds (ascending), how
// many recorded values certainly fall at or below it: a bucket counts
// toward a bound only when its entire range fits, so values straddling
// a bound are pushed to the next one (a conservative, Prometheus
// `le`-compatible overestimate of latency). The final element of the
// result is always the total count regardless of bounds.
func (h *Histogram) Cumulative(bounds []int64) []uint64 {
	out := make([]uint64, len(bounds)+1)
	var cum uint64
	bi := 0
	for i := 0; i < nBuckets && bi < len(bounds); i++ {
		upper := bucketUpper(i)
		for bi < len(bounds) && upper > bounds[bi] {
			out[bi] = cum
			bi++
		}
		if bi >= len(bounds) {
			break
		}
		cum += h.counts[i].Load()
	}
	for ; bi < len(bounds); bi++ {
		out[bi] = cum
	}
	out[len(bounds)] = h.Count()
	return out
}
