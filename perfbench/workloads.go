package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// Workload names, as passed to --workload.
const (
	wTCPZipf   = "tcp-zipf"
	wHTTPFleet = "http-fleet"
	wSimRepro  = "sim-repro"
)

var workloadNames = []string{wTCPZipf, wHTTPFleet, wSimRepro}

// Live load shape. Sized for a 2-CPU machine: one generator process,
// at most two connections, GOMAXPROCS ≤ 2 on both sides.
const (
	offeredRate = 40000 // aggregate items/s, both live workloads

	zipfStreams = 32
	zipfSkew    = 1.2

	fleetStreams = 16
	fleetTenants = 2

	// maxGenLagP99 invalidates a live run whose generator fell this far
	// behind its schedule at the 99th percentile: such a run measures a
	// starved generator, not the system under test.
	maxGenLagP99 = 25 * time.Millisecond
)

// scenario realizes the workload's per-stream arrival traces from the
// seed: the same seed replays the same arrivals.
func scenario(workload string, seed int64, dur time.Duration) (trace.Scenario, error) {
	d := simtime.Duration(dur.Nanoseconds())
	switch workload {
	case wTCPZipf:
		return trace.ZipfHeavyTail(seed, zipfStreams, d, offeredRate, zipfSkew), nil
	case wHTTPFleet:
		return trace.Diurnal(seed, fleetStreams, d, offeredRate/fleetStreams), nil
	}
	return trace.Scenario{}, fmt.Errorf("no live scenario for workload %q", workload)
}

// streamKeys lists the workload's stream keys without realizing a full
// trace (the keys depend only on the scenario shape).
func streamKeys(workload string) ([]string, error) {
	sc, err := scenario(workload, 1, time.Millisecond)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(sc.Streams))
	for i, st := range sc.Streams {
		keys[i] = st.Key
	}
	return keys, nil
}

// arrival is one scheduled item: its offset from the replay start and
// its stream index.
type arrival struct {
	at     int64 // ns after replay start
	stream int32
}

// schedule merges a scenario's per-stream traces into one send order.
func schedule(sc trace.Scenario) []arrival {
	var out []arrival
	for i, st := range sc.Streams {
		for _, at := range st.Trace.Arrivals {
			out = append(out, arrival{at: int64(at), stream: int32(i)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].at != out[b].at {
			return out[a].at < out[b].at
		}
		return out[a].stream < out[b].stream
	})
	return out
}

// tenantOf assigns fleet stream i to a tenant; streams alternate so
// both tenants carry half the load.
func tenantOf(stream int) int { return stream % fleetTenants }

func tenantID(t int) string  { return fmt.Sprintf("tenant-%d", t) }
func tenantKey(t int) string { return fmt.Sprintf("bench-key-%d", t) }
