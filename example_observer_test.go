package repro_test

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro"
)

// WithObserver exposes every runtime event (drains, reservations, timer
// fires, breaker transitions, ...), the live analogue of the
// simulator's invocation traces, useful for dashboards and debugging.
func ExampleWithObserver() {
	var drains atomic.Uint64
	rt, err := repro.New(
		repro.WithSlotSize(5*time.Millisecond),
		repro.WithMaxLatency(25*time.Millisecond),
		repro.WithObserver(func(e repro.Event) {
			if e.Kind == repro.EventDrain && e.Items > 0 {
				drains.Add(1)
			}
		}),
	)
	if err != nil {
		panic(err)
	}
	pair, err := repro.Open(rt, repro.Batch(func(batch []int) {}))
	if err != nil {
		panic(err)
	}
	for i := 0; i < 10; i++ {
		pair.PutWait(i, time.Second)
	}
	pair.Close()
	rt.Close()
	fmt.Println(drains.Load() > 0)
	// Output: true
}
