package ring

// Queue is an unbounded slice-backed FIFO. The simulator uses it for
// arrival-time bookkeeping where capacity limits are enforced logically
// (by quota checks) rather than by the container. Drain returns a view
// that aliases internal storage and is valid only until the next Push —
// simulation callers consume it synchronously within one event.
type Queue[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// PopFront removes and returns the oldest item.
func (q *Queue[T]) PopFront() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	v = q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 1024 && q.head*2 >= len(q.items) {
		// Compact so long-lived queues don't pin dead prefixes.
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v, true
}

// Drain removes all items, returning a view valid until the next Push.
func (q *Queue[T]) Drain() []T {
	out := q.items[q.head:]
	q.items = q.items[:0]
	q.head = 0
	return out
}
