package repro

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
)

// TestPutBatchSingleKick: a batch put pays one armed-check and at most
// one manager kick where the equivalent Put loop pays one per item.
func TestPutBatchSingleKick(t *testing.T) {
	rt, err := New(WithSlotSize(10*time.Millisecond), WithMaxLatency(50*time.Millisecond), WithBuffer(128))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var mu sync.Mutex
	var got []int
	pair, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		got = append(got, batch...)
		mu.Unlock()
	}))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	n, err := pair.PutBatch(items)
	if n != len(items) || err != nil {
		t.Fatalf("PutBatch = (%d, %v), want (%d, nil)", n, err, len(items))
	}
	if k := pair.Stats().Kicks; k != 1 {
		t.Errorf("kicks = %d, want 1 for a single batch into an unarmed pair", k)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == len(items)
	}) {
		t.Fatalf("delivered %d of %d", len(got), len(items))
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
}

// TestPutBatchPartialAccept: a batch larger than the quota is accepted
// up to the quota, the remainder is counted as overflow, and the
// partial prefix still drains in order.
func TestPutBatchPartialAccept(t *testing.T) {
	rt, err := New(WithSlotSize(10*time.Millisecond), WithMaxLatency(50*time.Millisecond), WithBuffer(16))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var mu sync.Mutex
	var got []int
	pair, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		got = append(got, batch...)
		mu.Unlock()
	}))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	n, err := pair.PutBatch(items)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("PutBatch = (%d, %v), want ErrOverflow", n, err)
	}
	if n < 1 || n >= len(items) {
		t.Fatalf("accepted %d of %d, want a non-empty strict prefix", n, len(items))
	}
	ps := pair.Stats()
	if want := uint64(len(items) - n); ps.Overflows != want {
		t.Errorf("overflows = %d, want %d", ps.Overflows, want)
	}
	if ps.ItemsIn != uint64(n) {
		t.Errorf("items in = %d, want %d", ps.ItemsIn, n)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	}) {
		t.Fatalf("delivered %d of %d accepted", len(got), n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
}

// TestPutBatchEmpty: an empty batch is a no-op, not an error.
func TestPutBatchEmpty(t *testing.T) {
	rt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	if n, err := pair.PutBatch(nil); n != 0 || err != nil {
		t.Fatalf("PutBatch(nil) = (%d, %v), want (0, nil)", n, err)
	}
	if k := pair.Stats().Kicks; k != 0 {
		t.Errorf("empty batch kicked the manager %d times", k)
	}
}

// TestConcurrentProducersPerProducerFIFO shares one ConcurrentProducers
// pair between several goroutines mixing Put and PutBatch while the
// manager drains. The quota is small, so overflows and forced drains
// interleave with the producers. Each producer's items must reach the
// handler in the order it sent them, and every item must come out
// exactly once. Histograms are on, so the enqueue-stamp ring sees the
// same producer mix.
func TestConcurrentProducersPerProducerFIFO(t *testing.T) {
	const producers, perProducer, batchLen = 4, 2000, 7
	type item struct{ producer, seq int }

	rt, err := New(WithManagers(2), WithSlotSize(time.Millisecond),
		WithMaxLatency(5*time.Millisecond), WithBuffer(64), WithHistograms())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var mu sync.Mutex
	next := make([]int, producers)
	var violations []string
	pair, err := Open(rt, Batch(func(batch []item) {
		mu.Lock()
		defer mu.Unlock()
		for _, it := range batch {
			if it.seq != next[it.producer] && len(violations) < 5 {
				violations = append(violations,
					fmt.Sprintf("producer %d: got seq %d, want %d", it.producer, it.seq, next[it.producer]))
			}
			next[it.producer] = it.seq + 1
		}
	}), ConcurrentProducers())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]item, 0, batchLen)
			for seq := 0; seq < perProducer; {
				if seq%(2*batchLen) < batchLen {
					// Single puts, retried in place on overflow.
					if err := pair.Put(item{w, seq}); err == nil {
						seq++
					} else if errors.Is(err, ErrOverflow) {
						runtime.Gosched()
					} else {
						t.Errorf("producer %d: Put: %v", w, err)
						return
					}
					continue
				}
				buf = buf[:0]
				for i := seq; i < seq+batchLen && i < perProducer; i++ {
					buf = append(buf, item{w, i})
				}
				n, err := pair.PutBatch(buf)
				seq += n
				if err != nil && !errors.Is(err, ErrOverflow) {
					t.Errorf("producer %d: PutBatch: %v", w, err)
					return
				}
				if n < len(buf) {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := pair.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, v := range violations {
		t.Error(v)
	}
	for w, n := range next {
		if n != perProducer {
			t.Errorf("producer %d: handler's last seq+1 = %d, want %d", w, n, perProducer)
		}
	}
	st := pair.Stats()
	if st.ItemsIn != producers*perProducer || st.ItemsOut != st.ItemsIn {
		t.Fatalf("ItemsIn %d, ItemsOut %d after Close; want both %d", st.ItemsIn, st.ItemsOut, producers*perProducer)
	}
}

// TestUnboundedPushBatch covers the ring-level bulk push behind
// PutBatch: in-order acceptance across a segment boundary, stopping
// exactly at the quota.
func TestUnboundedPushBatch(t *testing.T) {
	q := ring.NewUnbounded[int](2, 4, 6)
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if n := q.PushBatch(items); n != 6 {
		t.Fatalf("accepted %d, want quota 6", n)
	}
	if n := q.PushBatch(items); n != 0 {
		t.Fatalf("accepted %d into a full queue, want 0", n)
	}
	for i := 0; i < 6; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
}
