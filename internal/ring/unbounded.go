package ring

import (
	"fmt"
	"sync/atomic"
)

// seg is one arena segment: a fixed-size slot array plus the intrusive
// link Unbounded chains segments with. Headers and slots are
// preallocated together at construction, so linking a segment never
// allocates — the queue hands back the same headers it was built with,
// forever.
type seg[T any] struct {
	slots []T
	next  atomic.Pointer[seg[T]]
}

// Unbounded is a wait-free single-producer/single-consumer FIFO built
// as a linked list of fixed-size ring segments drawn from its own
// preallocated arena — Torquati's unbounded "list of SPSC buffers"
// (uSPSC, PAPERS.md) fitted with the paper's elastic quota. "Unbounded"
// means the queue imposes no structural capacity below its arena:
// admission is governed by the item quota, and the arena (Capacity)
// is only the physical ceiling on lent growth.
//
// Exactly one goroutine may push (Push/PushBatch) and one may pop
// (Pop/PopBatch/DrainTo) at a time; Len, Quota and SetQuota are safe
// from any goroutine. The two sides share only three cache lines:
//
//   - the producer line: the published item count (pushed) plus the
//     producer's private cursor into its tail segment, its cached
//     snapshot of the consumer's count and the arena bump index. A
//     steady-state Push writes no consumer-owned line; the consumer
//     count is re-read only when the quota check would otherwise fail.
//   - the consumer line: the published consumed count (popped), the
//     consumer's segment cursor and its cached snapshot of pushed.
//   - a cold line of read-mostly fields (quota, arena, recycle ring).
//
// Segment hand-off is wait-free and lock-free: drained segments go
// back to the producer through an SPSC recycle ring sized to hold the
// whole arena, and the producer takes a never-linked arena segment
// only when that ring is empty. The arena is therefore touched
// lazily, in the order the queue first needs it. The producer links a
// new segment before publishing the items in it, so a consumer that
// observes pushed > popped always finds the items' segments reachable.
type Unbounded[T any] struct {
	_ [64]byte

	// Producer-owned line.
	pushed       atomic.Uint64 // published item count (consumer-read)
	ppushed      uint64        // private item count (may run ahead inside PushBatch)
	cachedPopped uint64        // producer's snapshot of popped
	ptail        *seg[T]       // segment being written
	pw           int           // write index into ptail
	fresh        int           // next never-linked arena segment
	_            [16]byte

	// Consumer-owned line.
	popped       atomic.Uint64 // published consumed count (producer-read)
	cpopped      uint64        // private consumed count
	cachedPushed uint64        // consumer's snapshot of pushed
	phead        *seg[T]       // segment being read
	pr           int           // read index into phead
	_            [24]byte

	// Cold, read-mostly.
	quota   atomic.Int64
	arena   []seg[T]
	recycle *SPSC[*seg[T]] // consumer → producer drained-segment hand-back
}

// NewUnbounded returns a queue with the given item quota over an arena
// of segments×segSize item slots. One backing array and one header
// array serve every segment for the queue's whole life; the first
// segment is linked immediately (the queue needs a tail to write
// into). It panics on a non-positive geometry or a negative quota.
func NewUnbounded[T any](segments, segSize, quota int) *Unbounded[T] {
	if segments <= 0 || segSize <= 0 {
		panic(fmt.Sprintf("ring: invalid arena geometry %d×%d", segments, segSize))
	}
	if quota < 0 {
		panic(fmt.Sprintf("ring: negative quota %d", quota))
	}
	backing := make([]T, segments*segSize)
	arena := make([]seg[T], segments)
	for i := range arena {
		arena[i].slots = backing[i*segSize : (i+1)*segSize : (i+1)*segSize]
	}
	u := &Unbounded[T]{arena: arena, recycle: NewSPSC[*seg[T]](segments), fresh: 1}
	u.quota.Store(int64(quota))
	u.ptail = &arena[0]
	u.phead = &arena[0]
	return u
}

// Capacity returns the item slots the arena can back: the physical
// ceiling on the queue's length, whatever its quota.
func (u *Unbounded[T]) Capacity() int { return len(u.arena) * len(u.arena[0].slots) }

// Len returns the number of buffered items (published pushes minus
// published pops). Safe from any goroutine; with concurrent push/pop
// it is a snapshot.
func (u *Unbounded[T]) Len() int {
	return int(u.pushed.Load() - u.popped.Load())
}

// Pushed returns how many items have ever been published to the queue.
// Safe from any goroutine; an item is counted the moment it becomes
// visible to the consumer, never later.
func (u *Unbounded[T]) Pushed() uint64 { return u.pushed.Load() }

// Quota returns the current item quota.
func (u *Unbounded[T]) Quota() int { return int(u.quota.Load()) }

// SetQuota adjusts the item quota (clamped at 0). Shrinking below the
// current length drops nothing: pushes fail until the queue drains
// below the new quota.
func (u *Unbounded[T]) SetQuota(quota int) {
	if quota < 0 {
		quota = 0
	}
	u.quota.Store(int64(quota))
}

// headroom returns how many items may be admitted under the quota,
// refreshing the cached consumer count only when the stale snapshot is
// not enough to admit want items — the cache-line-frugal quota check.
func (u *Unbounded[T]) headroom(want int) int {
	q := uint64(u.quota.Load())
	used := u.ppushed - u.cachedPopped
	if used+uint64(want) > q {
		u.cachedPopped = u.popped.Load()
		used = u.ppushed - u.cachedPopped
	}
	if used >= q {
		return 0
	}
	if room := q - used; room < uint64(want) {
		return int(room)
	}
	return want
}

// grow links another segment after ptail: a recycled one if the
// consumer has handed any back, else the next never-linked arena
// segment. It fails only when every segment is linked. The link is
// published before any item in the new segment is, so the consumer
// can always walk to what it has been promised.
func (u *Unbounded[T]) grow() bool {
	s, ok := u.recycle.Pop()
	if !ok {
		if u.fresh == len(u.arena) {
			return false
		}
		s = &u.arena[u.fresh]
		u.fresh++
	}
	s.next.Store(nil)
	u.ptail.next.Store(s)
	u.ptail = s
	u.pw = 0
	return true
}

// Push appends v, returning false when the quota is reached or the
// arena cannot back the growth. Producer goroutine only.
func (u *Unbounded[T]) Push(v T) bool {
	if u.headroom(1) == 0 {
		return false
	}
	if u.pw == len(u.ptail.slots) && !u.grow() {
		return false
	}
	u.ptail.slots[u.pw] = v
	u.pw++
	u.ppushed++
	u.pushed.Store(u.ppushed)
	return true
}

// PushBatch appends items in order, returning how many were accepted
// (quota- or arena-limited). The whole batch costs one quota
// negotiation and one index publication — the write-combining bulk
// path. Producer goroutine only.
func (u *Unbounded[T]) PushBatch(items []T) int {
	n := u.headroom(len(items))
	if n == 0 {
		return 0
	}
	pushed := 0
	for pushed < n {
		if u.pw == len(u.ptail.slots) && !u.grow() {
			break
		}
		c := copy(u.ptail.slots[u.pw:], items[pushed:n])
		u.pw += c
		pushed += c
	}
	if pushed > 0 {
		u.ppushed += uint64(pushed)
		u.pushed.Store(u.ppushed)
	}
	return pushed
}

// advanceHead steps the consumer to the next segment, handing the
// drained one back to the producer via the recycle ring. The ring
// holds the whole arena, so the hand-back cannot fail while every
// segment is accounted for once. Only called when more published items
// exist, so next is always linked.
func (u *Unbounded[T]) advanceHead() {
	old := u.phead
	u.phead = old.next.Load()
	u.pr = 0
	if !u.recycle.Push(old) {
		panic("ring: recycle ring overflow: more segments handed back than the arena holds")
	}
}

// Pop removes the oldest item. Consumer goroutine only.
func (u *Unbounded[T]) Pop() (v T, ok bool) {
	if u.cpopped == u.cachedPushed {
		u.cachedPushed = u.pushed.Load()
		if u.cpopped == u.cachedPushed {
			return v, false
		}
	}
	if u.pr == len(u.phead.slots) {
		u.advanceHead()
	}
	var zero T
	v = u.phead.slots[u.pr]
	u.phead.slots[u.pr] = zero
	u.pr++
	u.cpopped++
	u.popped.Store(u.cpopped)
	return v, true
}

// PopBatch pops up to len(dst) items into dst, publishing one consumed
// count for the whole batch. Consumer goroutine only.
func (u *Unbounded[T]) PopBatch(dst []T) int {
	avail := u.available()
	if avail == 0 {
		return 0
	}
	n := len(dst)
	if avail < n {
		n = avail
	}
	u.popInto(dst[:n])
	return n
}

// DrainTo pops every published item into dst (appending) and returns
// the extended slice, publishing one consumed count for the whole
// drain. Consumer goroutine only.
func (u *Unbounded[T]) DrainTo(dst []T) []T {
	avail := u.available()
	if avail == 0 {
		return dst
	}
	base := len(dst)
	if free := cap(dst) - base; free < avail {
		grown := make([]T, base, base+avail)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+avail]
	u.popInto(dst[base:])
	return dst
}

// available refreshes the consumer's snapshot of pushed and returns
// the published backlog.
func (u *Unbounded[T]) available() int {
	u.cachedPushed = u.pushed.Load()
	return int(u.cachedPushed - u.cpopped)
}

// popInto fills dst (whose length must not exceed the published
// backlog) segment chunk by segment chunk, zeroing consumed slots so
// the arena does not pin dead values, then publishes the consumed
// count once.
func (u *Unbounded[T]) popInto(dst []T) {
	var zero T
	took := 0
	for took < len(dst) {
		if u.pr == len(u.phead.slots) {
			u.advanceHead()
		}
		chunk := u.phead.slots[u.pr:]
		c := copy(dst[took:], chunk)
		for i := 0; i < c; i++ {
			chunk[i] = zero
		}
		u.pr += c
		took += c
	}
	u.cpopped += uint64(took)
	u.popped.Store(u.cpopped)
}
