package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span kinds. A generator span covers one TCP flush or one SDK HTTP
// request; a handler span covers one batch delivered to the
// benchmark's consumer handler.
const (
	spanGenFlush   = "gen.flush"
	spanGenRequest = "gen.request"
	spanHandler    = "handler"
)

// seqRange is the run of one stream's sequence numbers a span carried.
type seqRange struct {
	Stream int32 `json:"s"`
	Lo     int64 `json:"lo"`
	Hi     int64 `json:"hi"`
}

// span is one timed call across a layer boundary. Spans of one item
// share its (stream, sequence number): a handler span's Cause is the
// generator span that carried the batch's first item.
type span struct {
	ID     int64      `json:"id"`
	Kind   string     `json:"kind"`
	Node   int        `json:"node,omitempty"`
	Start  int64      `json:"start_ns"` // unix ns
	End    int64      `json:"end_ns"`
	Items  int        `json:"items"`
	Ranges []seqRange `json:"ranges,omitempty"`
	Cause  int64      `json:"cause,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how untraced runs skip tracing.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	base  int64 // id offset, so two processes' ids never collide
}

func newSpanLog(base int64) *spanLog { return &spanLog{base: base} }

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	s.ID = l.base + int64(len(l.spans)) + 1
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// link sets each handler span's Cause to the generator span that
// carried its first item, and returns how many handler spans found no
// carrier.
func link(gen, handler []span) (unlinked int) {
	type carrier struct {
		lo, hi int64
		id     int64
	}
	by := map[int32][]carrier{}
	for _, g := range gen {
		for _, r := range g.Ranges {
			by[r.Stream] = append(by[r.Stream], carrier{r.Lo, r.Hi, g.ID})
		}
	}
	for _, cs := range by {
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	}
	for i := range handler {
		h := &handler[i]
		if len(h.Ranges) == 0 {
			unlinked++
			continue
		}
		r := h.Ranges[0]
		cs := by[r.Stream]
		k := sort.Search(len(cs), func(k int) bool { return cs[k].lo > r.Lo }) - 1
		if k < 0 || cs[k].hi < r.Lo {
			unlinked++
			continue
		}
		h.Cause = cs[k].id
	}
	return unlinked
}

// selfTime is the summed duration of every span of kind, minus the
// part of each span's interval that its child spans (those naming it
// as Cause) cover.
func selfTime(spans []span, kind string) time.Duration {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Cause != 0 {
			children[s.Cause] = append(children[s.Cause], [2]int64{s.Start, s.End})
		}
	}
	var total int64
	for _, s := range spans {
		if s.Kind != kind {
			continue
		}
		total += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return time.Duration(total)
}

// covered returns how much of [from, to) the union of ivs covers.
func covered(from, to int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := from
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], to)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// writeTrace writes the run's spans and runtime timeline as one JSON
// document under dir.
func writeTrace(dir, name string, doc any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
