package repro

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/predict"
)

// waitFor polls cond with a deadline; the test box may be single-core
// and heavily loaded, so bounds are generous.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestNewValidation(t *testing.T) {
	bad := []Option{
		WithManagers(0),
		WithSlotSize(0),
		WithMaxLatency(time.Millisecond), // below default slot
		WithBuffer(0),
		WithMinQuota(0),
		WithHeadroom(0),
		WithHeadroom(1.5),
		WithMaxPairs(0),
		WithPredictor(nil),
	}
	for i, opt := range bad {
		if _, err := New(opt); err == nil {
			t.Errorf("option %d should fail validation", i)
		}
	}
}

func TestBasicDeliveryAndOrder(t *testing.T) {
	rt, err := New(WithSlotSize(5*time.Millisecond), WithMaxLatency(25*time.Millisecond))
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

	const n = 200
	for i := 0; i < n; i++ {
		for pair.Put(i) != nil {
			time.Sleep(time.Millisecond)
		}
		if i%20 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if !waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
}

func TestBatching(t *testing.T) {
	rt, err := New(WithSlotSize(10*time.Millisecond), WithMaxLatency(50*time.Millisecond), WithBuffer(128))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var mu sync.Mutex
	batches := 0
	items := 0
	pair, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		batches++
		items += len(batch)
		mu.Unlock()
	}))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// A steady stream at ~5k items/s for ~400ms.
	for i := 0; i < 2000; i++ {
		for pair.Put(i) != nil {
			time.Sleep(100 * time.Microsecond)
		}
		if i%10 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return items == 2000
	}) {
		t.Fatalf("items = %d", items)
	}
	mu.Lock()
	avg := float64(items) / float64(batches)
	mu.Unlock()
	if avg < 2 {
		t.Fatalf("average batch = %.2f, want ≥ 2 (batching is the whole point)", avg)
	}
}

func TestLatencyBound(t *testing.T) {
	const maxLat = 60 * time.Millisecond
	rt, err := New(WithSlotSize(10*time.Millisecond), WithMaxLatency(maxLat))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	done := make(chan time.Duration, 1)
	start := time.Now()
	pair, err := Open(rt, Batch(func(batch []int) {
		select {
		case done <- time.Since(start):
		default:
		}
	}))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	start = time.Now()
	if err := pair.Put(1); err != nil {
		t.Fatal(err)
	}
	select {
	case lat := <-done:
		// Generous multiplier: scheduler noise on a loaded single-core
		// box can stretch a 60ms bound considerably.
		if lat > 10*maxLat {
			t.Fatalf("first-item latency %v far exceeds bound %v", lat, maxLat)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("item never delivered")
	}
}

func TestOverflowForcesDrain(t *testing.T) {
	rt, err := New(
		WithSlotSize(20*time.Millisecond),
		WithMaxLatency(400*time.Millisecond),
		WithBuffer(8), WithMinQuota(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var mu sync.Mutex
	received := 0
	pair, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		received += len(batch)
		mu.Unlock()
	}))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	accepted := 0
	sawOverflow := false
	for i := 0; i < 500; i++ {
		switch err := pair.Put(i); err {
		case nil:
			accepted++
		case ErrOverflow:
			sawOverflow = true
			time.Sleep(time.Millisecond)
		default:
			t.Fatal(err)
		}
	}
	if !sawOverflow {
		t.Fatal("flooding a buffer of 8 should overflow")
	}
	if !waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return received == accepted
	}) {
		t.Fatalf("received %d of %d accepted", received, accepted)
	}
	st := rt.Stats()
	if st.ForcedWakes == 0 {
		t.Error("overflow should force wakes")
	}
	if st.Overflows == 0 {
		t.Error("overflows should be counted")
	}
}

func TestCloseDrains(t *testing.T) {
	rt, err := New(WithSlotSize(50*time.Millisecond), WithMaxLatency(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := 0
	pair, err := Open(rt, Batch(func(batch []string) {
		mu.Lock()
		got += len(batch)
		mu.Unlock()
	}))

	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := pair.Put("x"); err != nil {
			t.Fatal(err)
		}
	}
	// Close immediately — long slot means nothing drained yet.
	if err := pair.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if got != 5 {
		mu.Unlock()
		t.Fatalf("close drained %d of 5", got)
	}
	mu.Unlock()
	if err := pair.Put("y"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v, want ErrClosed", err)
	}
	if err := pair.Close(); err != nil {
		t.Fatal("Close should be idempotent")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal("runtime Close should be idempotent")
	}
}

func TestRuntimeCloseDrainsPairs(t *testing.T) {
	rt, err := New(WithSlotSize(50*time.Millisecond), WithMaxLatency(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := 0
	pair, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		got += len(batch)
		mu.Unlock()
	}))

	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := pair.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got != 7 {
		t.Fatalf("runtime close drained %d of 7", got)
	}
	if _, err := Open(rt, Batch(func([]int) {})); !errors.Is(err, ErrClosed) {
		t.Fatalf("Open after Close = %v", err)
	}
}

func TestMaxPairs(t *testing.T) {
	rt, err := New(WithMaxPairs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	a, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(rt, Batch(func([]int) {})); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(rt, Batch(func([]int) {})); !errors.Is(err, ErrTooManyPairs) {
		t.Fatalf("third pair = %v, want ErrTooManyPairs", err)
	}
	// Closing one frees a slot.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(rt, Batch(func([]int) {})); err != nil {
		t.Fatalf("pair after close = %v", err)
	}
}

func TestHandlerPanicRecovered(t *testing.T) {
	rt, err := New(WithSlotSize(5*time.Millisecond), WithMaxLatency(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var mu sync.Mutex
	calls := 0
	pair, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		calls++
		c := calls
		mu.Unlock()
		if c == 1 {
			panic("boom")
		}
	}))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	if err := pair.Put(1); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 3*time.Second, func() bool { return rt.Stats().HandlerPanics == 1 }) {
		t.Fatal("panic not recovered/counted")
	}
	// Runtime still works.
	if err := pair.Put(2); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return calls >= 2
	}) {
		t.Fatal("runtime dead after handler panic")
	}
}

func TestStatsConsistency(t *testing.T) {
	rt, err := New(WithSlotSize(5*time.Millisecond), WithMaxLatency(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	out := 0
	var pairs []*Pair[int]
	for i := 0; i < 3; i++ {
		p, err := Open(rt, Batch(func(batch []int) {
			mu.Lock()
			out += len(batch)
			mu.Unlock()
		}))

		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, p)
	}
	var wg sync.WaitGroup
	accepted := make([]int, len(pairs))
	for pi, p := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if p.Put(i) == nil {
					accepted[pi]++
				} else {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	total := accepted[0] + accepted[1] + accepted[2]
	if !waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return out == total
	}) {
		t.Fatalf("delivered %d of %d", out, total)
	}
	// Close the pairs first: the runtime totals must then be exactly the
	// sum of the closed pairs' final counters.
	var sum PairStats
	for _, p := range pairs {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		sum = sum.fold(p.Stats(), PairStats{})
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.ItemsIn != uint64(total) || st.ItemsOut != uint64(total) {
		t.Fatalf("stats in=%d out=%d want %d", st.ItemsIn, st.ItemsOut, total)
	}
	if st.Invocations == 0 {
		t.Fatal("no invocations recorded")
	}
	fromPairs := Stats{
		ItemsIn:         sum.ItemsIn,
		ItemsOut:        sum.ItemsOut,
		Invocations:     sum.Invocations,
		Overflows:       sum.Overflows,
		HandlerPanics:   sum.Panics,
		HandlerErrors:   sum.Errors,
		HandlerTimeouts: sum.Timeouts,
		Quarantines:     sum.Quarantines,
		Redeliveries:    sum.Redeliveries,
		ItemsDropped:    sum.Dropped,
		HandedOff:       sum.HandedOff,
		// Not pair facts: taken from the runtime's own snapshot.
		TimerWakes:     st.TimerWakes,
		ForcedWakes:    st.ForcedWakes,
		Recoveries:     st.Recoveries,
		Migrations:     st.Migrations,
		PowerThrottles: st.PowerThrottles,
	}
	if st != fromPairs {
		t.Fatalf("runtime stats %+v\n!= sum of closed pairs %+v", st, fromPairs)
	}
}

// Latching observable in the live runtime: several pairs fed together
// produce fewer timer wakes than consumer invocations.
func TestLiveLatching(t *testing.T) {
	rt, err := New(WithSlotSize(10*time.Millisecond), WithMaxLatency(50*time.Millisecond), WithBuffer(256))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const pairsN = 4
	var pairs []*Pair[int]
	var mu sync.Mutex
	out := 0
	for i := 0; i < pairsN; i++ {
		p, err := Open(rt, Batch(func(batch []int) {
			mu.Lock()
			out += len(batch)
			mu.Unlock()
		}))

		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, p)
	}
	total := 0
	for round := 0; round < 50; round++ {
		for _, p := range pairs {
			for k := 0; k < 10; k++ {
				if p.Put(k) == nil {
					total++
				}
			}
		}
		time.Sleep(4 * time.Millisecond)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return out == total
	}) {
		t.Fatalf("delivered %d of %d", out, total)
	}
	st := rt.Stats()
	if st.TimerWakes == 0 {
		t.Fatal("no timer wakes")
	}
	if st.Invocations <= st.TimerWakes+st.ForcedWakes {
		t.Logf("stats: %+v", st)
		t.Skip("no latch sharing observed on this run (timing-dependent); skipping")
	}
}

func TestAblationOptionsRun(t *testing.T) {
	for _, opt := range []Option{WithoutLatching(), WithoutResizing(), WithoutPrediction()} {
		rt, err := New(opt, WithSlotSize(5*time.Millisecond), WithMaxLatency(25*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		got := 0
		pair, err := Open(rt, Batch(func(batch []int) {
			mu.Lock()
			got += len(batch)
			mu.Unlock()
		}))

		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			for pair.Put(i) != nil {
				time.Sleep(time.Millisecond)
			}
		}
		if !waitFor(t, 3*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return got == 50
		}) {
			t.Fatalf("ablation runtime lost items: %d of 50", got)
		}
		rt.Close()
	}
}

func TestCustomPredictor(t *testing.T) {
	rt, err := New(
		WithPredictor(func() predict.Predictor { return predict.NewKalman(1e5, 1e6) }),
		WithSlotSize(5*time.Millisecond), WithMaxLatency(25*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	done := make(chan struct{}, 1)
	pair, err := Open(rt, Batch(func(batch []int) {
		select {
		case done <- struct{}{}:
		default:
		}
	}))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	if err := pair.Put(1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Kalman-predicted pair never drained")
	}
}

func TestNilHandlerPanics(t *testing.T) {
	rt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler should panic")
		}
	}()
	_, _ = Open[int](rt, nil)
}
