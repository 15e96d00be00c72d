package repro

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/predict"
)

// Errors returned by the runtime.
var (
	// ErrClosed reports an operation on a closed pair or runtime.
	ErrClosed = errors.New("repro: closed")
	// ErrOverflow reports that Put found the pair's buffer at quota.
	// The runtime has already forced a drain; the caller may retry
	// immediately or shed the item.
	ErrOverflow = errors.New("repro: buffer overflow")
	// ErrTooManyPairs reports that the runtime already has MaxPairs
	// pairs open (see WithMaxPairs).
	ErrTooManyPairs = errors.New("repro: too many pairs")
	// ErrQuarantined reports a Put on a pair whose circuit breaker is
	// open (see Breaker): the handler has failed repeatedly and
	// items would only accumulate without draining, so Put fails fast.
	// The pair recovers automatically once a half-open probe succeeds;
	// callers should shed or route elsewhere, not spin.
	ErrQuarantined = errors.New("repro: pair quarantined")
)

// segSize is the item count of one segment of a pair's queue arena
// (see WithMaxPairs for the arena's size).
const segSize = 16

// options collects runtime configuration.
type options struct {
	managers   int
	slotSize   time.Duration
	maxLatency time.Duration
	buffer     int
	minQuota   int
	headroom   float64
	maxPairs   int
	predictor  predict.Factory
	observer   func(Event)

	consolidate *ConsolidationConfig
	powercap    *PowerCapConfig

	histograms  bool
	timelineCap int

	disableLatching   bool
	disableResizing   bool
	disablePrediction bool

	// Eq. 8 energy constants; defaults approximate a mobile-class core
	// (they only steer the latch-vs-new-slot trade, not correctness).
	omegaMicro    float64
	perItemMicro  float64
	overheadMicro float64

	// errs collects invalid option arguments; New reports them joined
	// instead of silently adjusting the value.
	errs []error
}

func defaultOptions() options {
	return options{
		managers:      1,
		slotSize:      10 * time.Millisecond,
		maxLatency:    200 * time.Millisecond,
		buffer:        64,
		minQuota:      2,
		headroom:      0.7,
		maxPairs:      64,
		predictor:     predict.DefaultFactory,
		omegaMicro:    38.5,
		perItemMicro:  1.7,
		overheadMicro: 6.8,
	}
}

func (o options) validate() error {
	if len(o.errs) > 0 {
		return errors.Join(o.errs...)
	}
	if o.managers < 1 {
		return fmt.Errorf("repro: managers %d < 1", o.managers)
	}
	if o.slotSize <= 0 {
		return fmt.Errorf("repro: slot size %v <= 0", o.slotSize)
	}
	if o.maxLatency < o.slotSize {
		return fmt.Errorf("repro: max latency %v below slot size %v", o.maxLatency, o.slotSize)
	}
	if o.buffer < 1 {
		return fmt.Errorf("repro: buffer %d < 1", o.buffer)
	}
	if o.minQuota < 1 || o.minQuota > o.buffer {
		return fmt.Errorf("repro: min quota %d outside [1, %d]", o.minQuota, o.buffer)
	}
	if o.headroom <= 0 || o.headroom > 1 {
		return fmt.Errorf("repro: headroom %v outside (0, 1]", o.headroom)
	}
	if o.maxPairs < 1 {
		return fmt.Errorf("repro: max pairs %d < 1", o.maxPairs)
	}
	if o.predictor == nil {
		return fmt.Errorf("repro: nil predictor factory")
	}
	if o.omegaMicro <= 0 || o.perItemMicro <= 0 || o.overheadMicro < 0 {
		return fmt.Errorf("repro: non-positive energy constants")
	}
	if o.timelineCap < 0 {
		return fmt.Errorf("repro: timeline capacity %d < 0", o.timelineCap)
	}
	if o.powercap != nil {
		if o.powercap.Milliwatts <= 0 {
			return fmt.Errorf("repro: power cap %v mW <= 0", o.powercap.Milliwatts)
		}
		if o.powercap.Interval < 0 {
			return fmt.Errorf("repro: power cap interval %v < 0", o.powercap.Interval)
		}
	}
	return nil
}

// Option configures a Runtime at New. The options fall into three
// concerns:
//
//   - Scheduling — when consumers wake: WithManagers, WithSlotSize,
//     WithMaxLatency, WithPredictor, WithConsolidation, and the
//     ablation switches WithoutLatching / WithoutResizing /
//     WithoutPrediction, plus the Eq. 8 energy constants steering the
//     latch-vs-new-slot trade.
//   - Buffering — where items wait: WithBuffer, WithMinQuota,
//     WithHeadroom, WithMaxPairs.
//   - Observability — what the runtime reports: WithObserver,
//     WithHistograms, WithTimeline.
//
// Invalid arguments are reported as an error from New, never silently
// adjusted.
type Option func(*options)

// WithManagers sets the number of core managers (one goroutine and one
// slot track each); pairs are assigned round-robin. Default 1 — the
// paper's consumer-isolation setup. Scheduling concern.
func WithManagers(n int) Option { return func(o *options) { o.managers = n } }

// WithSlotSize sets the track slot Δ. Default 10ms. Scheduling
// concern.
func WithSlotSize(d time.Duration) Option { return func(o *options) { o.slotSize = d } }

// WithMaxLatency bounds how long an item may sit buffered before its
// batch is drained. Default 200ms. Scheduling concern; MaxLatency
// overrides it per pair.
func WithMaxLatency(d time.Duration) Option { return func(o *options) { o.maxLatency = d } }

// WithBuffer sets B0, each pair's preferred buffer capacity in items;
// the global pool Bg is B0 × the number of open pairs (it grows by B0
// at Open and shrinks by B0 at Close). Default 64. Buffering concern.
func WithBuffer(b int) Option { return func(o *options) { o.buffer = b } }

// WithMinQuota sets the floor a pair's elastic quota can shrink to.
// Default 2. Buffering concern.
func WithMinQuota(n int) Option { return func(o *options) { o.minQuota = n } }

// WithHeadroom sets the target buffer utilization η in (0,1]; quotas
// are sized to predicted-need/η. Default 0.7. Buffering concern.
func WithHeadroom(h float64) Option { return func(o *options) { o.headroom = h } }

// WithMaxPairs caps concurrently open pairs. Default 64. Each pair
// allocates its own segment arena at Open, 2·⌈B0/16⌉ segments of 16
// items, and that arena also caps how much quota lent from the pool the
// pair can actually use. Buffering concern.
func WithMaxPairs(n int) Option { return func(o *options) { o.maxPairs = n } }

// WithPredictor sets the rate predictor factory (each pair gets its own
// instance). Default: the paper's moving average with window 8; see
// internal/predict for the EWMA, Kalman and hold variants. Scheduling
// concern.
func WithPredictor(f predict.Factory) Option { return func(o *options) { o.predictor = f } }

// WithConsolidation enables the placement controller: a background
// goroutine that periodically packs pairs onto the fewest managers
// whose combined predicted load stays within cfg.BudgetRate, migrating
// pairs live (no item loss or reordering) so emptied managers park
// their timers entirely, and spreading back out when load approaches
// the budget. The zero ConsolidationConfig takes defaults; see
// internal/place for the policy. Most useful with WithManagers(n>1).
func WithConsolidation(cfg ConsolidationConfig) Option {
	return func(o *options) { o.consolidate = &cfg }
}

// WithHistograms enables per-pair latency histograms
// (enqueue→handler-start and enqueue→handler-done) and per-manager
// wake→drain-done histograms, queryable via Runtime.PairLatencies,
// ManagerLatencies and LatencyTotals. Latencies are sampled one item
// in LatencySampleEvery, riding the pair's item counter, so producers
// pay a branch per Put and a stamp write per sample; off (the
// default), the hot path pays one nil check. See internal/obs for the
// histogram's resolution bound.
func WithHistograms() Option { return func(o *options) { o.histograms = true } }

// WithTimeline enables the bounded in-memory event timeline: every
// runtime Event of every kind, the same stream a WithObserver callback
// sees, dumpable via Runtime.TimelineDump (pcd serves it at
// /debug/timeline). Timer fires, forced wakes and the drains that carry
// their Seq as Wake make it the live analogue of the paper's Fig. 6.
// The ring keeps the most recent `capacity` records (rounded up to a
// power of two). capacity must be positive: New rejects ≤ 0 with an
// error (TimelineDefaultCap is a reasonable choice). Observability
// concern.
func WithTimeline(capacity int) Option {
	return func(o *options) {
		if capacity <= 0 {
			o.errs = append(o.errs, fmt.Errorf("repro: WithTimeline capacity %d <= 0 (use TimelineDefaultCap)", capacity))
			return
		}
		o.timelineCap = capacity
	}
}

// TimelineDefaultCap is the recommended WithTimeline capacity.
const TimelineDefaultCap = 4096

// WithoutLatching disables reservation latching (ablation/debugging).
func WithoutLatching() Option { return func(o *options) { o.disableLatching = true } }

// WithoutResizing pins every pair's quota at B0 (ablation/debugging).
func WithoutResizing() Option { return func(o *options) { o.disableResizing = true } }

// WithoutPrediction degrades to fixed every-slot periodic batching
// (ablation/debugging).
func WithoutPrediction() Option { return func(o *options) { o.disablePrediction = true } }
