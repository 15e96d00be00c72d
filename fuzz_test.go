package repro

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzTimelineJSON fuzzes the /debug/timeline encoding path: an Event
// with arbitrary field values goes through the timeline ring, the
// TimelineRecord conversion, and a JSON round trip. The encoder must
// never panic, must keep dumps ordered by sequence, must render every
// kind (out-of-range ones as "unknown"), and every field must survive
// the round trip (omitempty may drop zeros from the wire but not change
// values). Run `go test -fuzz=FuzzTimelineJSON .` to explore beyond the
// seeds.
func FuzzTimelineJSON(f *testing.F) {
	f.Add(uint8(1), int64(12345), 0, int64(3), uint64(7), uint64(2), 64, uint(16))
	f.Add(uint8(0), int64(-1), -5, int64(-9), uint64(0), uint64(0), 0, uint(0))
	f.Add(uint8(255), int64(1)<<62, 1<<20, int64(0), ^uint64(0), ^uint64(0), -1, uint(3))
	f.Fuzz(func(t *testing.T, kind uint8, nanos int64, manager int, slot int64,
		pair, wake uint64, items int, capacity uint) {
		if capacity > 1<<12 {
			capacity = 1 << 12
		}
		tl := obs.NewTimeline[Event](int(capacity))
		e := Event{
			Kind:    EventKind(kind),
			At:      time.Duration(nanos),
			Manager: manager,
			Slot:    slot,
			Pair:    int(pair),
			Wake:    wake,
			Items:   items,
		}
		// Append enough copies to wrap small rings at least once.
		n := tl.Cap() + 3
		for i := 1; i <= n; i++ {
			e.Seq = uint64(i)
			tl.Append(e.Seq, e)
		}
		recs := timelineRecords(tl.Dump())
		if len(recs) != tl.Cap() {
			t.Fatalf("dump after wrap has %d records, want %d", len(recs), tl.Cap())
		}
		for i, jr := range recs {
			if i > 0 && jr.Seq <= recs[i-1].Seq {
				t.Fatalf("dump out of order at %d: %d then %d", i, recs[i-1].Seq, jr.Seq)
			}
			if jr.Kind == "" {
				t.Fatalf("kind %d rendered empty", kind)
			}
			if jr.Kind != e.Kind.String() || jr.Nanos != nanos || jr.Manager != manager ||
				jr.Slot != slot || jr.Pair != e.Pair || jr.Wake != wake || jr.Items != items {
				t.Fatalf("conversion lost a field: %+v -> %+v", e, jr)
			}
			raw, err := json.Marshal(jr)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back TimelineRecord
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("unmarshal %s: %v", raw, err)
			}
			if back != jr {
				t.Fatalf("round trip mismatch: %+v -> %s -> %+v", jr, raw, back)
			}
		}
	})
}
