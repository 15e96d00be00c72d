// Package buffer implements the paper's dynamic buffer resizing (§V-C,
// Fig. 8) as quota accounting over a global pool.
//
// Each of M consumers starts with a preallocated buffer of B0 items;
// together they form a global buffer Bg = B0·M, which grows and
// shrinks as consumers are added and removed. A consumer downsizes
// its quota to its predicted need, releasing the remainder; a consumer
// facing a rate spike upsizes, bounded by the unclaimed pool space:
//
//	Bi = min(Bg − Σ Bq , r̂·(τ_{j+1} − τ_j))
//
// making "the walls between the consumer buffers elastic". The pool
// tracks integer capacities only — actual storage elasticity for the
// live runtime is provided by each pair's ring.Unbounded, whose own
// segment arena backs the quota it is granted here. Keeping the
// accounting separate from the storage keeps both testable and the
// invariant (Σ quotas ≤ Bg) explicit.
package buffer

import (
	"fmt"
	"sort"
)

// Pool manages per-consumer buffer quotas drawn from a global capacity.
// It is not goroutine-safe: the simulator is single-threaded, and the
// live runtime guards it with its own lock.
type Pool struct {
	global  int
	minPer  int
	b0      int // initial quota of each added consumer
	quotas  map[int]int
	claimed int

	// occupancy statistics for the paper's "average buffer size" metric
	quotaSamples   int
	quotaSampleSum float64
}

// NewPool creates a pool with no consumers; Add registers each one
// with quota b0, growing Bg by b0. minPer is the floor below which a
// quota can never drop (clamped to [1, b0], so a producer can always
// make progress toward an overflow wakeup).
func NewPool(b0, minPer int) *Pool {
	if b0 <= 0 {
		panic(fmt.Sprintf("buffer: invalid per-consumer capacity %d", b0))
	}
	if minPer < 1 {
		minPer = 1
	}
	if minPer > b0 {
		minPer = b0
	}
	return &Pool{
		minPer: minPer,
		b0:     b0,
		quotas: make(map[int]int),
	}
}

// Add registers a new consumer with the initial quota B0, growing the
// global capacity accordingly.
func (p *Pool) Add(id int) error {
	if _, ok := p.quotas[id]; ok {
		return fmt.Errorf("buffer: consumer %d already registered", id)
	}
	p.global += p.b0
	p.quotas[id] = p.b0
	p.claimed += p.b0
	return nil
}

// Remove releases a consumer, shrinking the global capacity by exactly
// the quota it held. Capacity the consumer had lent to others remains
// in the pool (Σ quotas ≤ Bg stays intact).
func (p *Pool) Remove(id int) error {
	q, ok := p.quotas[id]
	if !ok {
		return fmt.Errorf("buffer: unknown consumer %d", id)
	}
	delete(p.quotas, id)
	p.claimed -= q
	p.global -= q
	return nil
}

// Global returns Bg.
func (p *Pool) Global() int { return p.global }

// Available returns the unclaimed capacity Bg − ΣBq.
func (p *Pool) Available() int { return p.global - p.claimed }

// Quota returns consumer id's current capacity. Unknown ids panic:
// asking for a consumer that was never added (or already removed) is a
// caller bug.
func (p *Pool) Quota(id int) int {
	q, ok := p.quotas[id]
	if !ok {
		panic(fmt.Sprintf("buffer: unknown consumer %d", id))
	}
	return q
}

// Request resizes consumer id's quota toward want and returns the
// granted capacity. Downsizing always succeeds (to at least minPer);
// upsizing is limited by the pool's unclaimed space, implementing the
// paper's min{Bg − ΣBq, need} rule. The granted value is also sampled
// for the occupancy statistic.
func (p *Pool) Request(id, want int) int {
	cur := p.Quota(id)
	if want < p.minPer {
		want = p.minPer
	}
	granted := want
	if want > cur {
		headroom := p.Available()
		if grow := want - cur; grow > headroom {
			granted = cur + headroom
		}
	}
	p.quotas[id] = granted
	p.claimed += granted - cur
	p.quotaSamples++
	p.quotaSampleSum += float64(granted)
	return granted
}

// MeanQuota returns the average quota granted across all Request calls
// — the "average buffer size" the paper reports (43 of 50 allocated).
func (p *Pool) MeanQuota() float64 {
	if p.quotaSamples == 0 {
		return 0
	}
	return p.quotaSampleSum / float64(p.quotaSamples)
}

// CheckInvariant verifies Σ quotas == claimed ≤ global and every quota
// ≥ minPer. It returns an error rather than panicking so property tests
// can assert on it.
func (p *Pool) CheckInvariant() error {
	sum := 0
	ids := make([]int, 0, len(p.quotas))
	for id := range p.quotas {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		q := p.quotas[id]
		if q < p.minPer {
			return fmt.Errorf("buffer: consumer %d quota %d below floor %d", id, q, p.minPer)
		}
		sum += q
	}
	if sum != p.claimed {
		return fmt.Errorf("buffer: claimed %d != sum of quotas %d", p.claimed, sum)
	}
	if sum > p.global {
		return fmt.Errorf("buffer: quotas %d exceed global %d", sum, p.global)
	}
	return nil
}
