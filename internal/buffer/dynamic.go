package buffer

import "fmt"

// NewEmptyPool creates a pool with no consumers; the live runtime adds
// and removes them as pairs come and go. Each added consumer grows the
// global capacity by b0 (Bg = B0·M tracks the live M).
func NewEmptyPool(b0, minPer int) *Pool {
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
		perB0:  b0,
		quotas: make(map[int]int),
	}
}

// Add registers a new consumer with the initial quota B0, growing the
// global capacity accordingly.
func (p *Pool) Add(id int) error {
	if _, ok := p.quotas[id]; ok {
		return fmt.Errorf("buffer: consumer %d already registered", id)
	}
	if p.perB0 == 0 {
		// Fixed-size pool built with NewPool.
		return fmt.Errorf("buffer: pool has fixed membership")
	}
	p.global += p.perB0
	p.quotas[id] = p.perB0
	p.claimed += p.perB0
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
