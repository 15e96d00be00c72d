package obs

import (
	"sort"
	"sync/atomic"
)

// Timeline is a bounded lock-free ring of sequenced records. The caller
// numbers the records (the root package's event path assigns one
// global sequence per runtime event); Appends never block and never
// fail, and once more than Cap records have been appended each new one
// overwrites the one Cap sequence numbers older. That is the documented
// loss bound: with contiguous sequence numbers, a dump always holds the
// most recent min(appended, Cap) records.
type Timeline[T any] struct {
	slots    []atomic.Pointer[entry[T]]
	mask     uint64
	appended atomic.Uint64
}

type entry[T any] struct {
	seq uint64
	v   T
}

// NewTimeline returns a ring holding at least capacity records
// (rounded up to a power of two, minimum 16).
func NewTimeline[T any](capacity int) *Timeline[T] {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Timeline[T]{slots: make([]atomic.Pointer[entry[T]], n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity (the loss bound).
func (t *Timeline[T]) Cap() int { return len(t.slots) }

// Append records v under sequence number seq.
func (t *Timeline[T]) Append(seq uint64, v T) {
	t.slots[seq&t.mask].Store(&entry[T]{seq: seq, v: v})
	t.appended.Add(1)
}

// Appended returns how many records have ever been appended.
func (t *Timeline[T]) Appended() uint64 { return t.appended.Load() }

// Dump returns the surviving records ordered by sequence number. It is
// safe to call concurrently with Append; records overwritten mid-dump
// simply appear with their newer contents.
func (t *Timeline[T]) Dump() []T {
	es := make([]*entry[T], 0, len(t.slots))
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil {
			es = append(es, p)
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].seq < es[j].seq })
	out := make([]T, len(es))
	for i, e := range es {
		out[i] = e.v
	}
	return out
}
