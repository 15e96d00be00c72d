package repro

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLatencyHistograms: with WithHistograms, a pair's wait and done
// distributions are populated, done ≥ wait, and the totals survive the
// pair closing (retired merge) and runtime Close.
func TestLatencyHistograms(t *testing.T) {
	rt, err := New(
		WithSlotSize(2*time.Millisecond),
		WithMaxLatency(20*time.Millisecond),
		WithHistograms(),
	)
	if err != nil {
		t.Fatal(err)
	}
	var handled atomic.Uint64
	pair, err := Open(rt, Batch(func(batch []int) { handled.Add(uint64(len(batch))) }))
	if err != nil {
		t.Fatal(err)
	}
	const items = 500
	for i := 0; i < items; i++ {
		for pair.Put(i) != nil {
			time.Sleep(50 * time.Microsecond)
		}
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for handled.Load() < items && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled.Load() < items {
		t.Fatalf("handled %d of %d items", handled.Load(), items)
	}

	// Every sampled item must surface: one stamp per full sampling
	// stride, each ending up recorded or counted as a ring drop. The
	// last batch's recording races the handler's counter bump, so poll.
	wantSamples := uint64(items / LatencySampleEvery)
	var pl PairLatencies
	for {
		pls := rt.PairLatencies()
		if len(pls) != 1 {
			t.Fatalf("PairLatencies len = %d, want 1", len(pls))
		}
		pl = pls[0]
		if pl.Done.Count+pl.StampDrops >= wantSamples || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if pl.ID != pair.ID() {
		t.Fatalf("pair id = %d, want %d", pl.ID, pair.ID())
	}
	observed := pl.Done.Count
	if observed == 0 || pl.Wait.Count == 0 {
		t.Fatalf("empty distributions: wait=%d done=%d", pl.Wait.Count, observed)
	}
	if observed+pl.StampDrops < wantSamples {
		t.Fatalf("done count %d + stamp drops %d < %d samples", observed, pl.StampDrops, wantSamples)
	}
	if pl.Done.P99 < pl.Wait.P50 {
		t.Fatalf("done p99 %v below wait p50 %v", pl.Done.P99, pl.Wait.P50)
	}
	if pl.Done.Max > time.Minute {
		t.Fatalf("absurd max latency %v", pl.Done.Max)
	}

	mls := rt.ManagerLatencies()
	if len(mls) != 1 {
		t.Fatalf("ManagerLatencies len = %d, want 1", len(mls))
	}
	if mls[0].Drain.Count == 0 {
		t.Fatal("manager drain histogram empty despite timer wakes")
	}

	// Close the pair: its histograms must fold into the totals.
	if err := pair.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rt.PairLatencies(); len(got) != 0 {
		t.Fatalf("PairLatencies after close len = %d, want 0", len(got))
	}
	wait, done, ok := rt.LatencyTotals()
	if !ok {
		t.Fatal("LatencyTotals not ok with histograms enabled")
	}
	if done.Count != observed || wait.Count == 0 {
		t.Fatalf("retired totals lost data: wait=%d done=%d (want done %d)",
			wait.Count, done.Count, observed)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, done2, ok := rt.LatencyTotals(); !ok || done2.Count != done.Count {
		t.Fatalf("totals changed across Close: %d -> %d (ok=%v)", done.Count, done2.Count, ok)
	}
}

// TestStampDropsWhenRingFull: a pair filled past its stamp ring's
// capacity with no drain in between keeps the oldest stamps, counts
// every further sampled stamp as a drop, and still accepts every item.
func TestStampDropsWhenRingFull(t *testing.T) {
	// The stamp ring is clamped at 1<<16 stamps, so a B0 of 1<<20 items
	// samples twice as many stamps as it can carry. Zero-size items keep
	// the arena free; hour-long slots and pinned quotas keep the manager
	// from draining mid-fill.
	const items = 1 << 20
	rt, err := New(
		WithSlotSize(time.Hour),
		WithMaxLatency(time.Hour),
		WithBuffer(items),
		WithoutResizing(),
		WithHistograms(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]struct{}) {}))
	if err != nil {
		t.Fatal(err)
	}
	ringCap := pair.st.obs.stamps.Cap()
	offered := items / LatencySampleEvery
	if offered <= ringCap {
		t.Fatalf("premise: %d stamps offered fit the %d-stamp ring", offered, ringCap)
	}
	batch := make([]struct{}, 4096)
	for put := 0; put < items; put += len(batch) {
		if n, err := pair.PutBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("PutBatch at %d = (%d, %v)", put, n, err)
		}
	}
	pl := rt.PairLatencies()
	if len(pl) != 1 {
		t.Fatalf("PairLatencies = %d pairs, want 1", len(pl))
	}
	if pl[0].Wait.Count != 0 {
		t.Fatalf("a drain ran mid-fill (%d wait samples)", pl[0].Wait.Count)
	}
	if want := uint64(offered - ringCap); pl[0].StampDrops != want {
		t.Fatalf("StampDrops = %d, want %d offered - %d ring capacity = %d",
			pl[0].StampDrops, offered, ringCap, want)
	}
}

// TestObservabilityDisabledByDefault: without the options, the obs
// surface is inert and costs the hot path nothing but nil checks.
func TestObservabilityDisabledByDefault(t *testing.T) {
	rt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := pair.Put(1); err != nil {
		t.Fatal(err)
	}
	if rt.obs != nil || pair.st.obs != nil {
		t.Fatal("obs state allocated without WithHistograms/WithTimeline")
	}
	if got := rt.PairLatencies(); got != nil {
		t.Fatalf("PairLatencies = %v, want nil", got)
	}
	if got := rt.TimelineDump(); got != nil {
		t.Fatalf("TimelineDump = %v, want nil", got)
	}
	if _, _, ok := rt.LatencyTotals(); ok {
		t.Fatal("LatencyTotals ok without histograms")
	}
	if rt.TimelineCap() != 0 {
		t.Fatalf("TimelineCap = %d, want 0", rt.TimelineCap())
	}
}

// TestTimelineLatching: two pairs reserved into the same slot must show
// drain records sharing one timer-fire Wake — the live Fig. 6 claim.
func TestTimelineLatching(t *testing.T) {
	rt, err := New(
		WithSlotSize(5*time.Millisecond),
		WithMaxLatency(50*time.Millisecond),
		WithTimeline(1024),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const pairs = 4
	var done atomic.Uint64
	ps := make([]*Pair[int], pairs)
	for i := range ps {
		p, err := Open(rt, Batch(func(batch []int) { done.Add(uint64(len(batch))) }))
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// Steady trickle into every pair so their reservations keep
		// landing in nearby slots until a fire latches several at once.
		for _, p := range ps {
			_ = p.Put(1)
		}
		time.Sleep(2 * time.Millisecond)
		if timelineHasSharedFire(rt.TimelineDump(), 2) {
			return
		}
	}
	t.Fatalf("no timer fire latched ≥ 2 pairs; timeline tail: %+v", tail(rt.TimelineDump(), 20))
}

// timelineHasSharedFire reports whether any single timer fire's Seq is
// referenced as the Wake of drains on n distinct pairs.
func timelineHasSharedFire(recs []TimelineRecord, n int) bool {
	fires := map[uint64]map[int]bool{}
	for _, r := range recs {
		if r.Kind == "timer-fire" {
			fires[r.Seq] = map[int]bool{}
		}
	}
	for _, r := range recs {
		if r.Kind != "drain" || r.Wake == 0 {
			continue
		}
		if set, ok := fires[r.Wake]; ok {
			set[r.Pair] = true
			if len(set) >= n {
				return true
			}
		}
	}
	return false
}

func tail(recs []TimelineRecord, n int) []TimelineRecord {
	if len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs
}

// TestTimelineStorm: a migration + quarantine storm with full
// observability on must deliver every event class into the timeline
// with no loss beyond the ring bound, conserve items, and stay clean
// under -race.
func TestTimelineStorm(t *testing.T) {
	rt, err := New(
		WithManagers(3),
		WithSlotSize(time.Millisecond),
		WithMaxLatency(10*time.Millisecond),
		WithMaxPairs(32),
		WithHistograms(),
		WithTimeline(256), // small on purpose: force overwrites
		WithConsolidation(ConsolidationConfig{Interval: 5 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var flaky atomic.Bool
	flaky.Store(true)
	const pairs = 8
	ps := make([]*Pair[int], pairs)
	for i := range ps {
		i := i
		p, err := Open(rt, Func(func(_ context.Context, batch []int) error {
			if i == 0 && flaky.Load() {
				return boom
			}
			return nil
		}),

			Breaker(2), Redelivery(1))

		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, p := range ps {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = p.Put(1)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	flaky.Store(false) // let pair 0 recover
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	recs := rt.TimelineDump()
	if len(recs) != rt.TimelineCap() {
		t.Fatalf("storm dump has %d records, want full ring of %d", len(recs), rt.TimelineCap())
	}
	// Loss bound: the ring holds exactly the newest Cap sequence numbers.
	appended := rt.obs.timeline.Appended()
	lo := appended - uint64(rt.TimelineCap()) + 1
	for _, r := range recs {
		if r.Seq < lo || r.Seq > appended {
			t.Fatalf("record seq %d outside documented window [%d, %d]", r.Seq, lo, appended)
		}
	}
	st := rt.Stats()
	if st.Quarantines == 0 {
		t.Fatal("storm never tripped the breaker")
	}
	if st.ItemsIn != st.ItemsOut+st.ItemsDropped {
		t.Fatalf("conservation broken: in=%d out=%d dropped=%d", st.ItemsIn, st.ItemsOut, st.ItemsDropped)
	}
	// The full window must still be a contiguous, ordered story.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("gap in dump at %d: %d -> %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

// TestTimelineEventKinds: the transitions a breaker storm exercises
// show up in the dump — pair opens, fires, drains, forced wakes,
// redeliveries, drops, quarantine and recovery. (TestEventViewsAgree
// covers every kind.)
func TestTimelineEventKinds(t *testing.T) {
	rt, err := New(
		WithManagers(2),
		WithSlotSize(time.Millisecond),
		WithMaxLatency(10*time.Millisecond),
		WithBuffer(4),
		WithTimeline(4096),
		WithConsolidation(ConsolidationConfig{Interval: 5 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	boom := errors.New("boom")
	var fail atomic.Bool
	fail.Store(true)
	flakyPair, err := Open(rt, Func(func(context.Context, []int) error {
		if fail.Load() {
			return boom
		}
		return nil
	}),

		Breaker(1), Redelivery(1))

	if err != nil {
		t.Fatal(err)
	}
	steady, err := Open(rt, Batch(func([]int) {}), MaxLatency(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Kinds accumulate across dumps: the ring is small enough that the
	// opens at its start can be overwritten before the storm is done.
	kinds := map[string]int{}
	var last uint64
	deadline := time.Now().Add(10 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		_ = flakyPair.Put(1)
		for i := 0; i < 8; i++ {
			_ = steady.Put(i) // overflows the 4-slot buffer → forced wakes
		}
		time.Sleep(time.Millisecond)
		for _, r := range rt.TimelineDump() {
			if r.Seq > last {
				kinds[r.Kind]++
				last = r.Seq
			}
		}
		// Heal the handler only once its retained batch has failed
		// redelivery and been dropped.
		if !recovered && flakyPair.Quarantined() && kinds["drop"] > 0 {
			fail.Store(false)
			recovered = true
		}
		if kinds["timer-fire"] > 0 && kinds["drain"] > 0 && kinds["forced-wake"] > 0 &&
			kinds["quarantine"] > 0 && kinds["recover"] > 0 && kinds["redeliver"] > 0 &&
			kinds["drop"] > 0 && kinds["pair-open"] > 0 {
			return
		}
	}
	t.Fatalf("timeline missing event kinds after storm: %v", kinds)
}

func TestWithTimelineValidation(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := New(WithTimeline(capacity)); err == nil ||
			!strings.Contains(err.Error(), "WithTimeline") {
			t.Fatalf("New(WithTimeline(%d)) = %v, want construction error", capacity, err)
		}
	}
	rt, err := New(WithTimeline(TimelineDefaultCap))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}
