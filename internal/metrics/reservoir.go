package metrics

import (
	"sort"

	"repro/internal/simtime"
)

// reservoirSize bounds the memory of latency sampling; 4096 samples
// give percentile estimates well within the run-to-run noise of the
// experiments.
const reservoirSize = 4096

// Reservoir is a deterministic fixed-size uniform sample of item
// latencies (Vitter's algorithm R with a splitmix64 stream seeded by
// the element count, so identical runs sample identically). The paper
// frames latency as *the* cost of batching — "Mutex and Sem
// implementations have much lower latency … when energy efficiency is
// a main concern, a batch-based implementation with a bounded latency
// can provide an acceptable solution" (§III-C) — so the harness
// reports latency distributions next to power.
type Reservoir struct {
	samples []simtime.Duration
	seen    uint64
	rng     uint64
}

// Add offers one latency observation to the reservoir.
func (r *Reservoir) Add(d simtime.Duration) {
	r.seen++
	if len(r.samples) < reservoirSize {
		r.samples = append(r.samples, d)
		return
	}
	// Replace a random element with probability size/seen.
	j := r.next() % r.seen
	if j < uint64(len(r.samples)) {
		r.samples[j] = d
	}
}

// next advances the deterministic splitmix64 stream.
func (r *Reservoir) next() uint64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Percentile returns the p-th percentile (0–100) of the sampled
// latencies, 0 when empty. The reservoir is sorted in place.
func (r *Reservoir) Percentile(p float64) simtime.Duration {
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
	if p <= 0 {
		return r.samples[0]
	}
	if p >= 100 {
		return r.samples[n-1]
	}
	idx := int(p / 100 * float64(n-1))
	return r.samples[idx]
}
