package obs

import (
	"sync/atomic"
	"time"
)

// Clock is a coarse monotonic clock: a background ticker publishes the
// current runtime-relative nanoseconds into one atomic word, so hot
// paths read a timestamp in ~1-2 ns instead of calling the precise
// clock. The error is bounded by one tick, far below the slot size.
type Clock struct {
	now   atomic.Int64
	done  chan struct{}
	start time.Time
}

// NewClock starts a clock ticking at the given interval, measuring
// nanoseconds since start. Stop it with Stop.
func NewClock(start time.Time, tick time.Duration) *Clock {
	c := &Clock{done: make(chan struct{}), start: start}
	c.now.Store(int64(time.Since(start)))
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
				c.now.Store(int64(time.Since(start)))
			}
		}
	}()
	return c
}

// Now returns the last published runtime-relative nanoseconds.
func (c *Clock) Now() int64 { return c.now.Load() }

// Precise returns the exact runtime-relative nanoseconds without
// touching the published word (drain-side callers want accuracy, not
// cache traffic on the producers' clock line).
func (c *Clock) Precise() int64 {
	return int64(time.Since(c.start))
}

// Stop terminates the ticker goroutine. Now keeps returning the last
// published value.
func (c *Clock) Stop() {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}
