// Package ring provides the queue structures shared by the simulator
// and the live runtime:
//
//   - SPSC: a lock-free single-producer/single-consumer bounded ring
//     with cache-line-separated indices, cached remote-index snapshots
//     and optional lazy index publication (Torquati's recipe,
//     PAPERS.md). It is the one hand-written SPSC ring in the repo:
//     it recycles Unbounded's drained segments, carries each live
//     pair's enqueue timestamps to its drain, and backs the pinned
//     ping-pong benchmarks.
//   - Unbounded: a wait-free SPSC list-of-rings over its own
//     preallocated segment arena (Torquati's uSPSC) carrying the
//     paper's elastic item quota — the "linked lists, not actual
//     contiguous resizing" dynamic buffer (§V-C, Fig. 8) behind every
//     live pair. A pair whose producer side is shared serializes its
//     producers with its own lock; the queue stays single-producer and
//     the package takes no lock.
//   - Queue: an unbounded slice-backed FIFO the simulator uses for
//     arrival-time bookkeeping (virtual time is single-threaded).
package ring

import (
	"fmt"
	"sync/atomic"
)

// SPSC is a bounded lock-free single-producer single-consumer queue.
// Exactly one goroutine may push (Push/PushBatch/Flush) and exactly
// one may pop (Pop/PopBatch); Len and Cap are safe from either.
//
// The layout is the cache-conscious SPSC recipe from Torquati's study
// (PAPERS.md): head and tail are monotonically increasing counters
// masked into a power-of-two slot array, each alone on its own
// 64-byte line next to that side's *cached snapshot* of the other
// index, with the cold read-only fields (mask, stride, slots) on a
// line of their own. A steady-state Push touches no consumer-written
// line: the producer re-reads head only when its cached snapshot
// says the ring is full, and vice versa for Pop — so the index lines
// change hands once per wrap, not once per item.
//
// Lazy publication (NewSPSCLazy) adds the second half of the recipe:
// the producer publishes tail only every stride-th item, on
// PushBatch, on Flush, or when the ring fills, collapsing the
// coherence traffic of a burst of Pushes into one cache-line
// transfer. Until publication the items are invisible to the
// consumer (Len does not count them), so lazy rings suit spinning
// consumers or callers that Flush at their natural kick points.
type SPSC[T any] struct {
	// Cold line: read-only after construction.
	mask  uint64
	pub   uint64 // publication stride; 1 = eager
	slots []T
	_     [24]byte

	// Consumer line.
	head       atomic.Uint64 // next slot to read; consumer-written
	cachedTail uint64        // consumer's snapshot of tail
	_          [48]byte

	// Producer line.
	tail       atomic.Uint64 // published write index; producer-written
	ptail      uint64        // private write index (ptail-tail unpublished)
	ppub       uint64        // private mirror of tail (avoids atomic re-loads)
	cachedHead uint64        // producer's snapshot of head
	_          [32]byte
}

// NewSPSC returns an eagerly-publishing ring with capacity rounded up
// to the next power of two (minimum 2). It panics on non-positive
// capacities.
func NewSPSC[T any](capacity int) *SPSC[T] {
	return NewSPSCLazy[T](capacity, 1)
}

// NewSPSCLazy returns a ring that publishes the producer index only
// every stride-th push (and on PushBatch, Flush, or a full ring).
// stride is clamped to [1, capacity]; stride 1 is the eager NewSPSC
// behaviour. It panics on non-positive capacities.
func NewSPSCLazy[T any](capacity, stride int) *SPSC[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ring: invalid SPSC capacity %d", capacity))
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	if stride < 1 {
		stride = 1
	}
	if stride > n {
		stride = n
	}
	return &SPSC[T]{mask: uint64(n - 1), pub: uint64(stride), slots: make([]T, n)}
}

// Cap returns the ring's capacity.
func (q *SPSC[T]) Cap() int { return len(q.slots) }

// Len returns the number of *published* buffered items. It is a
// snapshot: with concurrent producers/consumers it may be immediately
// stale, and on a lazy ring it excludes pushes not yet flushed.
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// Push appends v, returning false when the ring is full. On a lazy
// ring the item becomes visible to the consumer at the next
// publication point (every stride-th push, Flush, or ring-full).
func (q *SPSC[T]) Push(v T) bool {
	if q.ptail-q.cachedHead >= uint64(len(q.slots)) {
		q.cachedHead = q.head.Load()
		if q.ptail-q.cachedHead >= uint64(len(q.slots)) {
			// Truly full: publish any pending items so the consumer
			// can make room, then report the overflow.
			q.publish()
			return false
		}
	}
	q.slots[q.ptail&q.mask] = v
	q.ptail++
	if q.ptail-q.ppub >= q.pub {
		q.publish()
	}
	return true
}

// PushBatch appends up to len(items) items and returns how many fit,
// publishing the producer index exactly once for the whole batch —
// the multipush write-combining path: a burst costs one index-line
// transfer instead of one per item.
func (q *SPSC[T]) PushBatch(items []T) int {
	space := uint64(len(q.slots)) - (q.ptail - q.cachedHead)
	if space < uint64(len(items)) {
		q.cachedHead = q.head.Load()
		space = uint64(len(q.slots)) - (q.ptail - q.cachedHead)
	}
	n := uint64(len(items))
	if space < n {
		n = space
	}
	if n == 0 {
		q.publish()
		return 0
	}
	start := q.ptail & q.mask
	c := copy(q.slots[start:], items[:n])
	if uint64(c) < n {
		copy(q.slots, items[c:n])
	}
	q.ptail += n
	q.publish()
	return int(n)
}

// Flush publishes any pushes still pending on a lazy ring. A no-op on
// eager rings and when nothing is pending. Producer goroutine only.
func (q *SPSC[T]) Flush() {
	if q.ptail != q.ppub {
		q.publish()
	}
}

func (q *SPSC[T]) publish() {
	if q.ptail != q.ppub {
		q.tail.Store(q.ptail)
		q.ppub = q.ptail
	}
}

// Pop removes and returns the oldest published item, with ok=false
// when empty.
func (q *SPSC[T]) Pop() (v T, ok bool) {
	head := q.head.Load()
	if head == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if head == q.cachedTail {
			return v, false
		}
	}
	v = q.slots[head&q.mask]
	var zero T
	q.slots[head&q.mask] = zero
	q.head.Store(head + 1)
	return v, true
}

// PopBatch pops up to len(dst) published items into dst and returns
// the count, publishing one head advance for the whole batch —
// batching amortizes the index update across the drain, the whole
// point of batch processing in the paper.
func (q *SPSC[T]) PopBatch(dst []T) int {
	head := q.head.Load()
	avail := q.cachedTail - head
	if avail < uint64(len(dst)) {
		q.cachedTail = q.tail.Load()
		avail = q.cachedTail - head
	}
	n := uint64(len(dst))
	if avail < n {
		n = avail
	}
	if n == 0 {
		return 0
	}
	var zero T
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & q.mask
		dst[i] = q.slots[idx]
		q.slots[idx] = zero
	}
	q.head.Store(head + n)
	return int(n)
}
