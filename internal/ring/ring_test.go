package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestSPSCBasic(t *testing.T) {
	q := NewSPSC[int](4)
	if q.Cap() != 4 {
		t.Fatalf("Cap = %d", q.Cap())
	}
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("Push %d failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push into full ring should fail")
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty ring should fail")
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	if got := NewSPSC[int](5).Cap(); got != 8 {
		t.Fatalf("Cap(5) rounds to %d, want 8", got)
	}
	if got := NewSPSC[int](1).Cap(); got != 2 {
		t.Fatalf("Cap(1) rounds to %d, want 2", got)
	}
}

func TestSPSCInvalidCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSPSC[int](0)
}

func TestSPSCWrapAround(t *testing.T) {
	q := NewSPSC[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !q.Push(round*10 + i) {
				t.Fatalf("round %d push %d failed", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Pop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d pop = %d,%v", round, v, ok)
			}
		}
	}
}

func TestSPSCPopBatch(t *testing.T) {
	q := NewSPSC[int](8)
	for i := 0; i < 6; i++ {
		q.Push(i)
	}
	dst := make([]int, 4)
	if n := q.PopBatch(dst); n != 4 {
		t.Fatalf("PopBatch = %d", n)
	}
	for i := 0; i < 4; i++ {
		if dst[i] != i {
			t.Fatalf("dst = %v", dst)
		}
	}
	if n := q.PopBatch(dst); n != 2 {
		t.Fatalf("second PopBatch = %d", n)
	}
	if n := q.PopBatch(dst); n != 0 {
		t.Fatalf("empty PopBatch = %d", n)
	}
	if n := q.PopBatch(nil); n != 0 {
		t.Fatalf("nil dst PopBatch = %d", n)
	}
}

// Concurrent FIFO correctness under the race detector.
func TestSPSCConcurrent(t *testing.T) {
	q := NewSPSC[int](64)
	const n = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			if q.Push(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var got []int
	go func() {
		defer wg.Done()
		buf := make([]int, 32)
		for len(got) < n {
			k := q.PopBatch(buf)
			got = append(got, buf[:k]...)
			if k == 0 {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

// Property: SPSC behaves exactly like a bounded FIFO reference model
// under an arbitrary single-threaded op sequence.
func TestPropertySPSCMatchesModel(t *testing.T) {
	f := func(ops []byte) bool {
		q := NewSPSC[int](8)
		var model []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				pushed := q.Push(next)
				modelPushed := len(model) < q.Cap()
				if pushed != modelPushed {
					return false
				}
				if pushed {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentPoolGeometry(t *testing.T) {
	p := NewSegmentPool[int](4, 8)
	if p.Total() != 4 || p.SegSize() != 8 || p.FreeSegments() != 4 {
		t.Fatalf("pool: %d/%d/%d", p.Total(), p.SegSize(), p.FreeSegments())
	}
}

func TestSegmentPoolInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSegmentPool[int](0, 8)
}

func TestSegmentedFIFO(t *testing.T) {
	p := NewSegmentPool[int](8, 4)
	q := NewUnbounded(p, 20)
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			if !q.Push(i) {
				t.Fatalf("round %d: push %d failed", round, i)
			}
		}
		if q.Push(99) {
			t.Fatal("push beyond quota should fail")
		}
		if q.Len() != 20 {
			t.Fatalf("Len = %d", q.Len())
		}
		for i := 0; i < 20; i++ {
			v, ok := q.Pop()
			if !ok || v != i {
				t.Fatalf("round %d: pop %d = %d,%v", round, i, v, ok)
			}
		}
		// The second round refills to quota only if the drained
		// segments came back rather than leaking.
	}
}

func TestSegmentedQuota(t *testing.T) {
	p := NewSegmentPool[int](4, 4)
	q := NewUnbounded(p, 2)
	if q.Quota() != 2 {
		t.Fatalf("Quota = %d", q.Quota())
	}
	q.Push(1)
	q.Push(2)
	if q.Push(3) {
		t.Fatal("quota should block")
	}
	q.SetQuota(4)
	if !q.Push(3) {
		t.Fatal("raised quota should admit")
	}
	// Shrinking below current length: pushes blocked, pops fine.
	q.SetQuota(1)
	if q.Push(4) {
		t.Fatal("shrunk quota should block pushes")
	}
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("pop after shrink = %d,%v", v, ok)
	}
	q.SetQuota(-5)
	if q.Quota() != 0 {
		t.Fatalf("negative quota should clamp to 0, got %d", q.Quota())
	}
}

func TestSegmentedDrainTo(t *testing.T) {
	p := NewSegmentPool[int](8, 4)
	q := NewUnbounded(p, 10)
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	out := q.DrainTo(make([]int, 0, 10))
	if len(out) != 10 {
		t.Fatalf("drained %d", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out = %v", out)
		}
	}
	if q.Len() != 0 {
		t.Fatal("drain should empty queue")
	}
	// Drained segments are reusable: the pool can again back everything
	// but the partly written tail segment.
	q.SetQuota(p.Capacity())
	n := 0
	for q.Push(n) {
		n++
	}
	if n < p.Capacity()-p.SegSize() {
		t.Fatalf("refilled %d after drain, want >= %d", n, p.Capacity()-p.SegSize())
	}
}

func TestSegmentedNegativeQuotaPanics(t *testing.T) {
	p := NewSegmentPool[int](1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUnbounded(p, -1)
}

// Property: the segmented queue matches a quota-bounded FIFO model
// under random quota raises and shrinks, and never leaks segments
// across arbitrary op sequences.
func TestPropertySegmentedMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		p := NewSegmentPool[int](6, 4)
		quota := rng.Intn(30)
		q := NewUnbounded(p, quota)
		var model []int
		next := 0
		for op := 0; op < 500; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				ok := q.Push(next)
				if ok {
					model = append(model, next)
					if len(model) > quota {
						t.Fatalf("trial %d: quota exceeded", trial)
					}
				} else if len(model) < quota && p.FreeSegments() > 0 {
					// Failure is only legitimate at quota or when a new
					// segment was needed and none was left.
					t.Fatalf("trial %d: spurious push failure (len=%d quota=%d free=%d)",
						trial, q.Len(), quota, p.FreeSegments())
				}
				next++
			case 2:
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					t.Fatalf("trial %d: pop ok mismatch", trial)
				}
				if ok {
					if v != model[0] {
						t.Fatalf("trial %d: FIFO violated", trial)
					}
					model = model[1:]
				}
			case 3:
				quota = rng.Intn(30)
				q.SetQuota(quota)
			}
			if q.Len() != len(model) {
				t.Fatalf("trial %d: len mismatch %d vs %d", trial, q.Len(), len(model))
			}
		}
		q.DrainTo(nil)
		// Every segment but the tail one must be reachable again.
		q.SetQuota(p.Capacity())
		n := 0
		for q.Push(n) {
			n++
		}
		if n < p.Capacity()-p.SegSize() {
			t.Fatalf("trial %d: leaked segments (refilled %d of %d)", trial, n, p.Capacity())
		}
	}
}

func BenchmarkSPSCPushPop(b *testing.B) {
	q := NewSPSC[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}

func BenchmarkUnboundedPushPop(b *testing.B) {
	p := NewSegmentPool[int](16, 64)
	q := NewUnbounded(p, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}
