package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(3 * Second).Add(500 * Millisecond)
	if got := tm.Seconds(); got != 3.5 {
		t.Fatalf("Seconds() = %v, want 3.5", got)
	}
	if d := tm.Sub(Time(Second)); d != 2*Second+500*Millisecond {
		t.Fatalf("Sub = %v", d)
	}
}

func TestDurationOfSeconds(t *testing.T) {
	cases := []struct {
		s    float64
		want Duration
	}{
		{1.0, Second},
		{0.000001, Microsecond},
		{0.5, 500 * Millisecond},
		{0, 0},
	}
	for _, c := range cases {
		if got := DurationOfSeconds(c.s); got != c.want {
			t.Errorf("DurationOfSeconds(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{2 * Second, "2.000s"},
		{1500 * Microsecond, "1.500ms"},
		{250 * Microsecond, "250.000µs"},
		{42, "42ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	l := NewLoop()
	var order []int
	l.Schedule(30, func() { order = append(order, 3) })
	l.Schedule(10, func() { order = append(order, 1) })
	l.Schedule(20, func() { order = append(order, 2) })
	l.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if l.Now() != 30 {
		t.Fatalf("Now = %v, want 30", l.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	l := NewLoop()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		l.Schedule(100, func() { order = append(order, i) })
	}
	l.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %v", i, order)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	l := NewLoop()
	l.Schedule(10, func() {})
	l.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	l.Schedule(5, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	l := NewLoop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	l.Schedule(5, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	l := NewLoop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	l.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	l := NewLoop()
	fired := false
	e := l.Schedule(10, func() { fired = true })
	if !l.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if l.Cancel(e) {
		t.Fatal("double cancel should return false")
	}
	l.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelNil(t *testing.T) {
	l := NewLoop()
	if l.Cancel(nil) {
		t.Fatal("Cancel(nil) should be false")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	l := NewLoop()
	var fired []int
	events := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		events[i] = l.Schedule(Time(i*10), func() { fired = append(fired, i) })
	}
	l.Cancel(events[4])
	l.Cancel(events[7])
	l.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestAfter(t *testing.T) {
	l := NewLoop()
	var at Time
	l.Schedule(100, func() {
		l.After(25, func() { at = l.Now() })
	})
	l.Run()
	if at != 125 {
		t.Fatalf("After fired at %v, want 125", at)
	}
}

func TestRunUntil(t *testing.T) {
	l := NewLoop()
	count := 0
	for i := 1; i <= 10; i++ {
		l.Schedule(Time(i*100), func() { count++ })
	}
	l.RunUntil(500)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if l.Now() != 500 {
		t.Fatalf("Now = %v, want 500", l.Now())
	}
	l.RunFor(500)
	if count != 10 || l.Now() != 1000 {
		t.Fatalf("count=%d now=%v", count, l.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	l := NewLoop()
	l.RunUntil(12345)
	if l.Now() != 12345 {
		t.Fatalf("Now = %v", l.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	l := NewLoop()
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 100 {
			l.After(1, chain)
		}
	}
	l.Schedule(0, chain)
	l.Run()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if l.Now() != 99 {
		t.Fatalf("Now = %v", l.Now())
	}
}

// Property: for any set of (time, id) pairs, events fire in
// nondecreasing time order, and within equal times in schedule order.
func TestPropertyHeapOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		l := NewLoop()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, tt := range times {
			at := Time(tt)
			seq := i
			l.Schedule(at, func() { fired = append(fired, rec{at, seq}) })
		}
		l.Run()
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random cancellation never corrupts the heap — the surviving
// events all fire, in order.
func TestPropertyCancelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		l := NewLoop()
		n := 200
		events := make([]*Event, n)
		firedAt := make([]Time, 0, n)
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(1000))
			events[i] = l.Schedule(at, func() { firedAt = append(firedAt, l.Now()) })
		}
		cancelled := 0
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				if l.Cancel(events[i]) {
					cancelled++
				}
			}
		}
		l.Run()
		if len(firedAt) != n-cancelled {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(firedAt), n-cancelled)
		}
		if !sort.SliceIsSorted(firedAt, func(i, j int) bool { return firedAt[i] < firedAt[j] }) {
			t.Fatalf("trial %d: out-of-order firing", trial)
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := NewLoop()
		for j := 0; j < 1000; j++ {
			l.Schedule(Time(j%97), func() {})
		}
		l.Run()
	}
}
