package ring

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestUnboundedFIFOWrapAround(t *testing.T) {
	u := NewUnbounded[int](4, 4, 8)
	// Cycle items through repeatedly so segments are recycled many
	// times over (wrap-around through the recycle ring).
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for u.Push(next) {
			next++
		}
		for {
			v, ok := u.Pop()
			if !ok {
				break
			}
			if v != want {
				t.Fatalf("round %d: got %d want %d", round, v, want)
			}
			want++
		}
	}
	if want != next {
		t.Fatalf("popped %d of %d pushed", want, next)
	}
}

func TestUnboundedBatchExactlyFillsSegment(t *testing.T) {
	u := NewUnbounded[int](4, 8, 32)
	batch := make([]int, 8) // exactly one segment
	for i := range batch {
		batch[i] = i
	}
	if n := u.PushBatch(batch); n != 8 {
		t.Fatalf("PushBatch = %d, want 8", n)
	}
	// The next push must cross into a fresh segment.
	if !u.Push(8) {
		t.Fatal("Push after exact fill failed")
	}
	got := u.DrainTo(nil)
	if len(got) != 9 {
		t.Fatalf("drained %d items, want 9", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestUnboundedBatchSpansSegments(t *testing.T) {
	u := NewUnbounded[int](8, 4, 32)
	batch := make([]int, 14) // spans ≥3 segments of 4
	for i := range batch {
		batch[i] = 100 + i
	}
	if n := u.PushBatch(batch); n != 14 {
		t.Fatalf("PushBatch = %d, want 14", n)
	}
	got := u.DrainTo(nil)
	if len(got) != 14 {
		t.Fatalf("drained %d, want 14", len(got))
	}
	for i, v := range got {
		if v != 100+i {
			t.Fatalf("got[%d] = %d, want %d", i, v, 100+i)
		}
	}
}

func TestUnboundedQuotaLimitsBatch(t *testing.T) {
	u := NewUnbounded[int](4, 4, 5)
	batch := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if n := u.PushBatch(batch); n != 5 {
		t.Fatalf("PushBatch = %d, want quota-limited 5", n)
	}
	if u.Push(99) {
		t.Fatal("Push above quota succeeded")
	}
	got := u.DrainTo(nil)
	if len(got) != 5 || got[4] != 4 {
		t.Fatalf("drained %v", got)
	}
}

func TestUnboundedShrinkWhilePush(t *testing.T) {
	u := NewUnbounded[int](4, 4, 12)
	for i := 0; i < 8; i++ {
		if !u.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	// Shrink below the current length: nothing dropped, pushes fail.
	u.SetQuota(4)
	if u.Push(99) {
		t.Fatal("push above shrunk quota succeeded")
	}
	if got := u.Len(); got != 8 {
		t.Fatalf("Len = %d after shrink, want 8 (no drops)", got)
	}
	// Drain below the new quota, then pushes resume.
	buf := make([]int, 5)
	if n := u.PopBatch(buf); n != 5 {
		t.Fatalf("PopBatch = %d, want 5", n)
	}
	if !u.Push(8) {
		t.Fatal("push below restored headroom failed")
	}
	got := u.DrainTo(nil)
	want := []int{5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestUnboundedPoolExhaustion(t *testing.T) {
	// Quota far above what the arena can physically back.
	u := NewUnbounded[int](2, 2, 100)
	n := 0
	for u.Push(n) {
		n++
	}
	if n != 4 {
		t.Fatalf("accepted %d items, want arena-limited 4", n)
	}
	got := u.DrainTo(nil)
	if len(got) != 4 {
		t.Fatalf("drained %d, want 4", len(got))
	}
	// After a full drain the segments recycle: pushes work again.
	if !u.Push(42) {
		t.Fatal("push after recycle failed")
	}
}

// TestUnboundedConcurrentFIFO exercises the wait-free path with a real
// producer/consumer goroutine pair and verifies order + conservation
// (the claims the single-producer fast path rests on).
func TestUnboundedConcurrentFIFO(t *testing.T) {
	u := NewUnbounded[int](8, 16, 64)
	const total = 50000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			if u.Push(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	want := 0
	buf := make([]int, 37) // odd size to slide across segment bounds
	for want < total {
		n := u.PopBatch(buf)
		if n == 0 {
			runtime.Gosched()
		}
		for i := 0; i < n; i++ {
			if buf[i] != want {
				t.Fatalf("got %d want %d", buf[i], want)
			}
			want++
		}
	}
	wg.Wait()
	if u.Len() != 0 {
		t.Fatalf("Len = %d after drain", u.Len())
	}
}

// TestPropertySegmentedSPMatchesModel drives the segmented
// single-producer queue (Unbounded) against the plain Queue model with
// mixed push/pushbatch/pop/drain operations.
func TestPropertySegmentedSPMatchesModel(t *testing.T) {
	f := func(ops []uint8, vals []int) bool {
		q := NewUnbounded[int](6, 4, 10)
		model := &Queue[int]{}
		vi := 0
		nextVal := func() int {
			if len(vals) == 0 {
				return vi
			}
			v := vals[vi%len(vals)]
			vi++
			return v
		}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				v := nextVal()
				if q.Push(v) {
					model.Push(v)
				} else if model.Len() < q.Quota() {
					// Full only at quota (the arena is ample here).
					return false
				}
			case 1:
				batch := make([]int, int(op%5)+1)
				for i := range batch {
					batch[i] = nextVal()
				}
				n := q.PushBatch(batch)
				for i := 0; i < n; i++ {
					model.Push(batch[i])
				}
			case 2:
				got, ok := q.Pop()
				want, wok := model.PopFront()
				if ok != wok || got != want {
					return false
				}
			case 3:
				got := q.DrainTo(nil)
				for _, v := range got {
					want, ok := model.PopFront()
					if !ok || v != want {
						return false
					}
				}
				if model.Len() != 0 {
					return false
				}
			}
			if q.Len() != model.Len() || !arenaConserved(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
