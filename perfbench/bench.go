package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"time"

	"repro/internal/exp"
)

// perLayer are the metrics of single layers, reported by traced runs
// (--trace 1) of every workload. A layer the workload does not exercise
// reports 0; the ledger rows run on every workload, fed with its items.
var perLayer = append([]metricDef{
	{"failed_ratio", "fraction"},

	// client SDK (http-fleet)
	{"client.request_us.p50", "us"},
	{"client.request_us.p99", "us"},
	{"client.items_per_request", "count"},
	{"client.retries_per_kitem", "count"},

	// internal/server
	{"ledger.server_ingest.b1.ns_per_item", "ns"},
	{"ledger.server_ingest.b1.allocs_per_item", "count"},
	{"ledger.server_ingest.b64.ns_per_item", "ns"},
	{"ledger.server_ingest.b64.allocs_per_item", "count"},
	{"ledger.tcp_line.ns_per_line", "ns"},
	{"ledger.tcp_line.allocs_per_line", "count"},
	{"ledger.http_request.us", "us"},
	{"ledger.http_request.allocs", "count"},
	{"server.shed_items", "count"},
	{"server.tcp_malformed", "count"},

	// internal/tenant
	{"ledger.tenant_admit.ns", "ns"},
	{"ledger.tenant_buffer.ns", "ns"},
	{"tenant.shed_rate_items", "count"},
	{"tenant.shed_buffer_items", "count"},

	// internal/cluster
	{"ledger.cluster_encode.ns_per_item", "ns"},
	{"ledger.cluster_decode.ns_per_item", "ns"},
	{"ledger.cluster_frame.bytes_per_item", "bytes"},
	{"ledger.cluster_forward.us_per_call", "us"},
	{"cluster.forwarded_share", "fraction"},
	{"cluster.forward_fallbacks", "count"},

	// root runtime: Put, PutBatch, manager drain
	{"ledger.put.c1.ns_per_item", "ns"},
	{"ledger.put.c1.allocs_per_item", "count"},
	{"ledger.put.c2.ns_per_item", "ns"},
	{"ledger.put.c2.allocs_per_item", "count"},
	{"ledger.putbatch.ns_per_item", "ns"},
	{"ledger.putbatch.allocs_per_item", "count"},
	{"ledger.put_sp.ns_per_item", "ns"},
	{"runtime.timer_wakes_per_kitem", "count"},
	{"runtime.forced_wakes_per_kitem", "count"},
	{"runtime.overflows_per_kitem", "count"},
	{"handler.items_per_batch", "count"},
	{"runtime.wait_p99_ms", "ms"},
	{"runtime.drain_p99_us", "us"},

	// internal/obs
	{"ledger.obs_record.ns", "ns"},

	// simulator: internal/trace, internal/core, internal/impls, internal/exp
	{"sim.trace_gen.ns_per_item", "ns"},
	{"sim.pbpl.ns_per_item", "ns"},
	{"sim.pbpl.allocs_per_item", "count"},
	{"sim.baseline.bp.ns_per_item", "ns"},
	{"sim.baseline.bp.allocs_per_item", "count"},
	{"sim.baseline.mutex.ns_per_item", "ns"},
	{"sim.baseline.mutex.allocs_per_item", "count"},
	{"sim.gc_cpu_fraction", "fraction"},

	// OS and generator: validity of the live numbers
	{"os.runqueue_wait_ms_per_s", "ms/s"},
	{"os.involuntary_switches_per_kitem", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.cpu_us_per_item", "us"},

	// spans: self time per layer, and the cost of tracing itself
	{"trace.gen.self_us_per_item", "us"},
	{"trace.handler.self_us_per_item", "us"},
	{"trace.gen_to_handler_p99_ms", "ms"},
	{"trace.unlinked_batches", "count"},
	{"overhead.cpu_us_per_item", "us"},
	{"overhead.latency_p99_ms", "ms"},
	{"overhead.wakeups_per_kitem", "count"},
	{"overhead.os_wakeups_per_kitem", "count"},
	{"overhead.run_s", "s"},
}, figureMetrics()...)

// figureMetrics declares one wall-time metric per figure id.
func figureMetrics() []metricDef {
	var out []metricDef
	for _, id := range exp.IDs() {
		out = append(out, metricDef{figMetric(id), "s"})
	}
	return out
}

func figMetric(id string) string { return "sim.fig." + id + "_s" }

// liveE2E are the end-to-end values of one live run.
type liveE2E struct {
	cpuUs, p50, p99, wakes, osWakes, runS float64
}

// cpuQuantile picks the per-window CPU cost reported: outside load on a
// shared machine only ever adds CPU time (cache, memory bandwidth and
// SMT contention), so a low quantile over the windows tracks the
// program's own cost more steadily than the median.
const cpuQuantile = 0.25

// e2e computes the end-to-end values. CPU and OS wakeups per item come
// from the run's sampling windows (those that admitted items; over the
// run every admitted item is delivered); the rest cover the whole run.
func (r *liveRun) e2e() liveE2E {
	d := float64(r.delivered)
	var cpu, osw []float64
	for _, w := range r.windows {
		if w.items > 0 {
			cpu = append(cpu, float64(w.cpu.Nanoseconds())/1e3/float64(w.items))
			osw = append(osw, perK(float64(w.nvcsw), float64(w.items)))
		}
	}
	return liveE2E{
		cpuUs:   quantile(cpu, cpuQuantile),
		p50:     float64(r.lat.quantile(0.50)) / 1e6,
		p99:     float64(r.lat.quantile(0.99)) / 1e6,
		wakes:   perK(float64(r.st1.TimerWakes+r.st1.ForcedWakes-r.st0.TimerWakes-r.st0.ForcedWakes), d),
		osWakes: median(osw),
		runS:    r.wall.Seconds(),
	}
}

// valid rejects a run whose generator could not keep its schedule.
func (r *liveRun) valid() error {
	if lag := time.Duration(r.gen.LagP99Ms * 1e6); lag > maxGenLagP99 {
		return fmt.Errorf("run invalid: generator lag p99 %v exceeds %v", lag, maxGenLagP99)
	}
	return nil
}

func liveBench(o options) (result, error) {
	if !o.trace {
		setups, err := measureSetup(o)
		if err != nil {
			return result{}, err
		}
		r, err := runLive(o.workload, o.seed, o.seconds, false, o.traceDir)
		if err != nil {
			return result{}, err
		}
		if err := r.valid(); err != nil {
			return result{}, err
		}
		e := r.e2e()
		ms := newMetricSet(endToEnd)
		ms.set("cpu_us_per_item", e.cpuUs)
		ms.set("latency_p50_ms", e.p50)
		ms.set("latency_p99_ms", e.p99)
		ms.set("wakeups_per_kitem", e.wakes)
		ms.set("os_wakeups_per_kitem", e.osWakes)
		ms.set("run_s", e.runS)
		ms.set("setup_s", median(setups))
		ms.set("peak_rss_mb", float64(r.os1.maxRSS)/1024)
		return result{Correct: true, Attempted: r.offered, Failed: r.offered - r.delivered, Metrics: ms.m}, ms.err
	}

	// Traced: an untraced pass, then a traced one, so the difference is
	// the tracing overhead; then the layer ledger. The two passes share
	// the run's seconds.
	plain, err := runLive(o.workload, o.seed, o.seconds/2, false, o.traceDir)
	if err != nil {
		return result{}, err
	}
	r, err := runLive(o.workload, o.seed, o.seconds/2, true, o.traceDir)
	if err != nil {
		return result{}, err
	}
	for _, run := range []*liveRun{plain, r} {
		if err := run.valid(); err != nil {
			return result{}, err
		}
	}
	ms := newMetricSet(perLayer)
	if err := ledger(ms, o); err != nil {
		return result{}, err
	}
	d := float64(r.delivered)
	ms.set("failed_ratio", float64(r.offered-r.delivered)/float64(r.offered))

	c := r.gen.Client
	ms.set("client.request_us.p50", r.gen.ReqP50Us)
	ms.set("client.request_us.p99", r.gen.ReqP99Us)
	ms.set("client.items_per_request", ratio(float64(c.Sent), float64(r.gen.Requests)))
	ms.set("client.retries_per_kitem", perK(float64(c.Retries), float64(c.Sent)))

	ms.set("server.shed_items", r.shedItems)
	ms.set("server.tcp_malformed", r.tcpMalformed)
	ms.set("tenant.shed_rate_items", r.shedRate)
	ms.set("tenant.shed_buffer_items", r.shedBuffer)
	ms.set("cluster.forwarded_share", ratio(r.forwarded, float64(r.offered)))
	ms.set("cluster.forward_fallbacks", r.fallbacks)

	ms.set("runtime.timer_wakes_per_kitem", perK(float64(r.st1.TimerWakes-r.st0.TimerWakes), d))
	ms.set("runtime.forced_wakes_per_kitem", perK(float64(r.st1.ForcedWakes-r.st0.ForcedWakes), d))
	ms.set("runtime.overflows_per_kitem", perK(float64(r.st1.Overflows-r.st0.Overflows), d))
	ms.set("handler.items_per_batch", ratio(d, float64(r.batches)))
	ms.set("runtime.wait_p99_ms", float64(r.waitP99)/1e6)
	ms.set("runtime.drain_p99_us", float64(r.drainP99)/1e3)

	for _, id := range exp.IDs() {
		ms.set(figMetric(id), 0)
	}
	ms.set("sim.gc_cpu_fraction", 0)

	ms.set("os.runqueue_wait_ms_per_s", float64(r.os1.rqWait-r.os0.rqWait)/1e6/r.wall.Seconds())
	ms.set("os.involuntary_switches_per_kitem", perK(float64(r.os1.nivcsw-r.os0.nivcsw), d))
	ms.set("gen.lag_p99_ms", r.gen.LagP99Ms)
	ms.set("gen.cpu_us_per_item", r.gen.CPUUs/float64(r.offered))

	var genKind string
	if o.workload == wTCPZipf {
		genKind = spanGenFlush
	} else {
		genKind = spanGenRequest
	}
	ms.set("trace.gen.self_us_per_item", float64(selfTime(r.spans, genKind).Microseconds())/float64(r.offered))
	ms.set("trace.handler.self_us_per_item", float64(selfTime(r.spans, spanHandler).Nanoseconds())/1e3/d)
	ms.set("trace.gen_to_handler_p99_ms", float64(handoffP99(r.spans))/1e6)
	ms.set("trace.unlinked_batches", float64(r.unlinked))

	t, u := r.e2e(), plain.e2e()
	ms.set("overhead.cpu_us_per_item", t.cpuUs-u.cpuUs)
	ms.set("overhead.latency_p99_ms", t.p99-u.p99)
	ms.set("overhead.wakeups_per_kitem", t.wakes-u.wakes)
	ms.set("overhead.os_wakeups_per_kitem", t.osWakes-u.osWakes)
	ms.set("overhead.run_s", t.runS-u.runS)
	return result{Correct: true, Attempted: r.offered, Failed: r.offered - r.delivered, Metrics: ms.m}, ms.err
}

// handoffP99 is the 99th percentile of handler-span start minus the end
// of the generator span that carried the batch's first item: the time
// items spend inside the system under test before the handler.
func handoffP99(spans []span) int64 {
	end := map[int64]int64{}
	for _, s := range spans {
		if s.Kind != spanHandler {
			end[s.ID] = s.End
		}
	}
	var d []int64
	for _, s := range spans {
		if e, ok := end[s.Cause]; ok && s.Kind == spanHandler {
			d = append(d, s.Start-e)
		}
	}
	return quantileInt64(d, 0.99)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureSetup times o.setups fresh processes from exec until they are
// ready to serve.
func measureSetup(o options) ([]float64, error) {
	var out []float64
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		c, err := startChild("setup", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10))
		if err != nil {
			return nil, err
		}
		line, err := c.line()
		took := time.Since(start)
		if err != nil || line != "ready" {
			c.stop()
			return nil, fmt.Errorf("set-up probe not ready (%q): %v", line, err)
		}
		if err := c.wait(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, took.Seconds())
	}
	return out, nil
}

// setupMain is the set-up probe: build the workload's system (or, for
// sim-repro, everything up to the first figure), say "ready", tear
// down.
func setupMain(args []string) error {
	fs := flag.NewFlagSet("setup", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "input seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	setProcs()
	if *workload == wSimRepro {
		if _, err := newSimPlan(*seed); err != nil {
			return err
		}
		fmt.Println("ready")
		return nil
	}
	keys, err := streamKeys(*workload)
	if err != nil {
		return err
	}
	s, err := startSUT(*workload, newSink(keys, nil), false)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.close(ctx)
}
