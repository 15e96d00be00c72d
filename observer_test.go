package repro

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestObserverSequence(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	rt, err := New(
		WithSlotSize(5*time.Millisecond),
		WithMaxLatency(25*time.Millisecond),
		WithObserver(func(e Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	for i := 0; i < 20; i++ {
		if err := pair.PutWait(i, time.Second); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		return pair.Stats().ItemsOut == 20 && pair.Len() == 0
	}) {
		t.Fatal("items not drained")
	}
	// Let the pair go idle (MA decays after zero drains).
	ok := waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range events {
			if e.Kind == EventIdle {
				return true
			}
		}
		return false
	})
	mu.Lock()
	defer mu.Unlock()
	var drains, reserves, idles, items int
	for _, e := range events {
		switch e.Kind {
		case EventDrain:
			drains++
			items += e.Items
		case EventReserve:
			reserves++
			if e.Slot <= 0 {
				t.Errorf("reserve with non-positive slot: %+v", e)
			}
		case EventIdle:
			idles++
		}
		if e.At < 0 {
			t.Errorf("negative event time: %+v", e)
		}
	}
	if drains == 0 || reserves == 0 {
		t.Fatalf("missing events: drains=%d reserves=%d", drains, reserves)
	}
	if items != 20 {
		t.Fatalf("observer saw %d items, want 20", items)
	}
	if !ok {
		t.Log("no idle transition observed (predictor still decaying); acceptable")
	}
	// Kind strings render.
	if EventDrain.String() != "drain" || EventReserve.String() != "reserve" ||
		EventIdle.String() != "idle" || EventKind(99).String() != "unknown" {
		t.Fatal("EventKind strings wrong")
	}
}

// TestEventViewsAgree drives every event kind through one runtime with
// both sinks on — the Observer and a timeline too large to wrap — and
// checks that the two views are the same stream: the Observer's events,
// keyed by Seq, equal TimelineDump field for field, and every drain's
// Wake names an earlier timer fire or forced wake on its manager.
func TestEventViewsAgree(t *testing.T) {
	var mu sync.Mutex
	var seen []Event
	rt, err := New(
		WithManagers(2),
		WithSlotSize(time.Millisecond),
		WithMaxLatency(10*time.Millisecond),
		WithBuffer(4),
		WithObserver(func(e Event) {
			mu.Lock()
			seen = append(seen, e)
			mu.Unlock()
		}),
		WithTimeline(1<<16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	await := func(k EventKind, nudge func()) {
		t.Helper()
		if !waitFor(t, 10*time.Second, func() bool {
			mu.Lock()
			found := false
			for _, e := range seen {
				found = found || e.Kind == k
			}
			mu.Unlock()
			if !found {
				nudge()
			}
			return found
		}) {
			t.Fatalf("no %v event", k)
		}
	}
	nothing := func() {}

	// One item into a quiet pair: reserve, timer fire, drain, idle.
	steady, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := steady.Put(1); err != nil {
		t.Fatal(err)
	}
	await(EventIdle, nothing)
	// Overflow the four-item quota: forced wake.
	await(EventForcedWake, func() {
		for i := 0; i < 16; i++ {
			_ = steady.Put(i)
		}
	})
	if !rt.migrate(steady.st, rt.managers[1-steady.st.mgr.Load().id]) {
		t.Fatal("migrate refused")
	}

	// A failing handler: its batch is retained, redelivered, dropped,
	// and the second consecutive failure quarantines the pair; once the
	// handler heals, a probe recovers it.
	var fail atomic.Bool
	fail.Store(true)
	flaky, err := Open(rt, Func(func(context.Context, []int) error {
		if fail.Load() {
			return errors.New("boom")
		}
		return nil
	}), Breaker(2), Redelivery(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = flaky.Put(1)
	await(EventQuarantine, func() { _ = flaky.Put(1) })
	fail.Store(false)
	await(EventRecover, func() { _ = flaky.Put(1) })

	// A handler outliving its deadline: overrun.
	slow, err := Open(rt, Batch(func([]int) { time.Sleep(5 * time.Millisecond) }),
		HandlerTimeout(time.Millisecond), Breaker(0), Redelivery(0))
	if err != nil {
		t.Fatal(err)
	}
	_ = slow.Put(1)
	await(EventOverrun, nothing)

	if _, err := flaky.Handoff(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pair[int]{steady, slow} {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	dump := rt.TimelineDump()
	if uint64(len(dump)) != rt.obs.timeline.Appended() {
		t.Fatalf("timeline wrapped: %d records of %d appended", len(dump), rt.obs.timeline.Appended())
	}
	if len(dump) != len(seen) {
		t.Fatalf("timeline has %d events, observer saw %d", len(dump), len(seen))
	}
	bySeq := make(map[uint64]Event, len(seen))
	for _, e := range seen {
		if _, dup := bySeq[e.Seq]; dup || e.Seq == 0 {
			t.Fatalf("observer event with duplicate or zero seq: %+v", e)
		}
		bySeq[e.Seq] = e
	}
	kinds := map[EventKind]int{}
	for _, r := range dump {
		e, ok := bySeq[r.Seq]
		if !ok {
			t.Fatalf("timeline record %+v never reached the observer", r)
		}
		want := TimelineRecord{
			Seq:     e.Seq,
			Kind:    e.Kind.String(),
			Nanos:   int64(e.At),
			Manager: e.Manager,
			Slot:    e.Slot,
			Pair:    e.Pair,
			Wake:    e.Wake,
			Items:   e.Items,
		}
		if r != want {
			t.Fatalf("views disagree at seq %d: timeline %+v, observer %+v", r.Seq, r, e)
		}
		kinds[e.Kind]++
		if e.Kind != EventDrain || e.Wake == 0 {
			continue
		}
		cause, ok := bySeq[e.Wake]
		if !ok || cause.Seq >= e.Seq || cause.Manager != e.Manager ||
			(cause.Kind != EventTimerFire && cause.Kind != EventForcedWake) ||
			e.Scheduled != (cause.Kind == EventTimerFire) {
			t.Fatalf("drain %+v has no valid cause (wake event %+v)", e, cause)
		}
	}
	for k := EventDrain; k <= EventForcedWake; k++ {
		if kinds[k] == 0 {
			t.Errorf("no %v event in either view (kinds: %v)", k, kinds)
		}
	}
}
