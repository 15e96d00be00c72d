package ring

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Seg is one pool segment: a fixed-size slot array plus the intrusive
// link Unbounded chains segments with. Nodes are preallocated by the
// pool together with their backing storage, so acquiring a segment
// never allocates — the arena hands back the same headers it was built
// with, forever.
type Seg[T any] struct {
	slots []T
	next  atomic.Pointer[Seg[T]]
}

// SegmentPool is a preallocated arena of fixed-size segments shared by
// the Unbounded queues built on it. It realizes the paper's global
// buffer Bg: "a preallocated buffer of size Bg = B0 × M" whose walls
// between consumer buffers are elastic (§V-C, Fig. 8). Queues grow by
// taking segments from the pool; neither the pool nor its segment
// headers allocate after construction.
type SegmentPool[T any] struct {
	mu      sync.Mutex
	segSize int
	free    []*Seg[T]
	total   int
}

// NewSegmentPool builds a pool of segments×segSize item slots. One
// backing array and one header array serve every segment for the
// pool's whole life.
func NewSegmentPool[T any](segments, segSize int) *SegmentPool[T] {
	if segments <= 0 || segSize <= 0 {
		panic(fmt.Sprintf("ring: invalid pool geometry %d×%d", segments, segSize))
	}
	p := &SegmentPool[T]{segSize: segSize, total: segments}
	backing := make([]T, segments*segSize)
	nodes := make([]Seg[T], segments)
	p.free = make([]*Seg[T], segments)
	for i := 0; i < segments; i++ {
		nodes[i].slots = backing[i*segSize : (i+1)*segSize : (i+1)*segSize]
		p.free[i] = &nodes[i]
	}
	return p
}

// SegSize returns the items per segment.
func (p *SegmentPool[T]) SegSize() int { return p.segSize }

// Total returns the pool's total segment count.
func (p *SegmentPool[T]) Total() int { return p.total }

// Capacity returns the total item slots the pool can back (Total ×
// SegSize): the physical ceiling on any queue drawing from it.
func (p *SegmentPool[T]) Capacity() int { return p.total * p.segSize }

// FreeSegments returns how many segments are currently unclaimed.
func (p *SegmentPool[T]) FreeSegments() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

func (p *SegmentPool[T]) acquire() (*Seg[T], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return nil, false
	}
	seg := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	seg.next.Store(nil)
	return seg, true
}

func (p *SegmentPool[T]) release(seg *Seg[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) >= p.total {
		panic("ring: segment released twice")
	}
	seg.next.Store(nil)
	p.free = append(p.free, seg)
}
