// Package obs is the live runtime's observability toolkit: the
// low-overhead primitives behind the root package's WithHistograms and
// WithTimeline options. Everything here is built for the producer and
// core-manager hot paths, so the design rules are strict:
//
//   - Histogram is a lock-free log-bucketed (HDR-style) latency
//     histogram: recording is a handful of atomic adds, quantiles are
//     answered within a bounded relative error (≤ 1/16 ≈ 6.25%), and
//     histograms merge by bucket addition so per-pair instances can be
//     rolled up into runtime totals.
//   - Timeline is a bounded ring of sequenced records; the root
//     package stores every runtime Event in it (timer fires, forced
//     wakes, latched drains, breaker transitions, ...), the live
//     analogue of the paper's Fig. 6 timeline view. Appends are
//     lock-free; the documented loss bound is the ring capacity: only
//     the most recent Cap() records survive.
//   - Clock is a coarse ticker-updated clock: producers read one atomic
//     instead of calling the precise clock on every Put, trading ≤ one
//     tick of timestamp error (far below the slot size) for a
//     near-free hot path.
//
// The per-item enqueue stamps the histograms record travel from a
// pair's producer to its drain in a ring.SPSC that the root package
// owns; this package only stamps (Clock) and records (Histogram).
//
// The paper's argument rests on measuring wakeups and the latency cost
// of batching (§III-C); these primitives make that measurement possible
// on the live runtime without distorting what is being measured.
package obs
