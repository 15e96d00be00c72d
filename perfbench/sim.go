package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/simtime"
)

// sim-repro regenerates every table in exp.IDs() with one replicate at
// a fixed virtual duration, and runs the FIG9 PBPL configuration for
// the paper's per-item terms.
const (
	simFigDuration = 2 * simtime.Second
	fig9Duration   = 10 * simtime.Second
	fig9Replicates = 32
	minFigureSets  = 3

	// simRefSeed is the seed testdata/sim_reference.txt was rendered
	// at; a run at that seed must reproduce it byte for byte.
	simRefSeed = 1
)

//go:embed testdata/sim_reference.txt
var simReference []byte

const spanFigure = "sim.figure"

type simPlan struct {
	seed int64
	ref  []byte // nil unless the seed is the reference seed
}

func newSimPlan(seed int64) (*simPlan, error) {
	if len(simReference) == 0 {
		return nil, fmt.Errorf("empty sim reference")
	}
	p := &simPlan{seed: seed}
	if seed == simRefSeed {
		p.ref = simReference
	}
	return p, nil
}

// realization is the exp base seed of the run's r-th figure set. The
// amount of simulated work differs by a third between seeds, so a run
// regenerates the figure set over several realizations and reports the
// median; realization 0 is the run's seed itself.
func (p *simPlan) realization(r int) int64 { return p.seed + int64(r)*7919 }

// regenerate renders every table of realization r once, returning the
// rendered bytes and each figure's wall time. Each table's replicate
// reports are validated inside exp (a conservation break is an error).
func (p *simPlan) regenerate(r int, log *spanLog) ([]byte, map[string]time.Duration, error) {
	cfg := exp.Config{Duration: simFigDuration, Replicates: 1, BaseSeed: p.realization(r)}
	var buf bytes.Buffer
	times := map[string]time.Duration{}
	for _, id := range exp.IDs() {
		start := time.Now()
		t, err := exp.ByID(id, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("figure %s: %w", id, err)
		}
		if err := t.Render(&buf); err != nil {
			return nil, nil, err
		}
		end := time.Now()
		times[id] = end.Sub(start)
		log.add(span{Kind: spanFigure, Start: start.UnixNano(), End: end.UnixNano(), Items: 1})
	}
	return buf.Bytes(), times, nil
}

// figureSets are the wall times of a run's figure sets.
type figureSets struct {
	plain, traced []float64 // set wall times, s
	perFig        map[string][]float64
	tables        int64
}

// runFigureSets regenerates the figure set until seconds have passed
// (at least minFigureSets times), one realization after another.
// Realization 0 runs twice in a row, and the two renderings must agree
// byte for byte; at the reference seed it must also match the
// reference. With log non-nil every realization runs twice, untraced
// then traced, so the pair gives the tracing overhead. between, when
// not nil, runs after every set.
func runFigureSets(p *simPlan, seconds float64, log *spanLog, between func() error) (*figureSets, error) {
	fs := &figureSets{perFig: map[string][]float64{}}
	var prev []byte
	start := time.Now()
	for i := 0; ; i++ {
		r, again := max(0, i-1), i == 1
		if log != nil {
			r, again = i/2, i%2 == 1
		}
		traced := log != nil && again
		var l *spanLog
		if traced {
			l = log
		}
		t0 := time.Now()
		out, times, err := p.regenerate(r, l)
		if err != nil {
			return nil, err
		}
		took := time.Since(t0).Seconds()
		fs.tables += int64(len(times))
		switch {
		case i == 0 && p.ref != nil && !bytes.Equal(out, p.ref):
			return nil, fmt.Errorf("figure set at the reference seed differs from testdata/sim_reference.txt")
		case again && !bytes.Equal(out, prev):
			return nil, fmt.Errorf("two renderings of realization %d (seed %d) differ", r, p.realization(r))
		}
		prev = out
		if traced {
			fs.traced = append(fs.traced, took)
			for id, d := range times {
				fs.perFig[id] = append(fs.perFig[id], d.Seconds())
			}
		} else {
			fs.plain = append(fs.plain, took)
		}
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		enough := len(fs.plain) >= minFigureSets && (log == nil || len(fs.traced) >= minFigureSets)
		if enough && (log == nil || again) && time.Since(start).Seconds() >= seconds {
			return fs, nil
		}
	}
}

// fig9Config is the FIG9 PBPL configuration: 5 consumers, buffer 25.
func fig9Config(seed int64, dur simtime.Duration) core.Config {
	return core.DefaultConfig(exp.MultiBase(5, dur, seed, 25))
}

// fig9Runs runs FIG9 PBPL over fig9Replicates workload realizations
// derived from the run's seed: one realization's flash crowds swing its
// latency and wakeups too much to compare runs by. The realizations run
// a few at a time between figure sets, so both measurements sample the
// whole run.
type fig9Runs struct {
	seed               int64
	done               int
	p50, p99, cpu, osw []float64
	wakes, produced    float64
}

func (f *fig9Runs) finished() bool { return f.done == fig9Replicates }

// step runs the next realization and checks its report; the first
// realization runs twice, and the two reports must agree.
func (f *fig9Runs) step() error {
	cfg := fig9Config(f.seed*fig9Replicates+int64(f.done), fig9Duration)
	a := readOS()
	r, err := core.Run(cfg)
	b := readOS()
	if err != nil {
		return err
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if f.done == 0 {
		again, err := core.Run(cfg)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(again, r) {
			return fmt.Errorf("FIG9 PBPL differs between two runs of the same seed")
		}
	}
	f.done++
	f.cpu = append(f.cpu, float64((b.cpu-a.cpu).Nanoseconds())/1e3/float64(r.Produced))
	f.osw = append(f.osw, perK(float64(b.nvcsw-a.nvcsw), float64(r.Produced)))
	f.p50 = append(f.p50, float64(r.LatencyP50)/float64(simtime.Millisecond))
	f.p99 = append(f.p99, float64(r.LatencyP99)/float64(simtime.Millisecond))
	f.wakes += float64(r.Wakeups)
	f.produced += float64(r.Produced)
	return nil
}

func simBench(o options) (result, error) {
	p, err := newSimPlan(o.seed)
	if err != nil {
		return result{}, err
	}
	if !o.trace {
		setups, err := measureSetup(o)
		if err != nil {
			return result{}, err
		}
		f9 := &fig9Runs{seed: o.seed}
		sets, err := runFigureSets(p, o.seconds, nil, func() error {
			for i := 0; i < 3 && !f9.finished(); i++ {
				if err := f9.step(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return result{}, err
		}
		for !f9.finished() {
			if err := f9.step(); err != nil {
				return result{}, err
			}
		}
		ms := newMetricSet(endToEnd)
		ms.set("cpu_us_per_item", quantile(f9.cpu, cpuQuantile))
		ms.set("latency_p50_ms", median(f9.p50))
		ms.set("latency_p99_ms", median(f9.p99))
		ms.set("wakeups_per_kitem", perK(f9.wakes, f9.produced))
		ms.set("os_wakeups_per_kitem", median(f9.osw))
		ms.set("run_s", median(sets.plain))
		ms.set("setup_s", median(setups))
		ms.set("peak_rss_mb", float64(readOS().maxRSS)/1024)
		return result{Correct: true, Attempted: sets.tables + fig9Replicates + 1, Metrics: ms.m}, ms.err
	}

	log := newSpanLog(0)
	sets, err := runFigureSets(p, o.seconds/2, log, nil)
	if err != nil {
		return result{}, err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if err := writeTrace(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed),
		map[string]any{"workload": o.workload, "seed": o.seed, "spans": log.all()}); err != nil {
		return result{}, err
	}
	ms := newMetricSet(perLayer)
	if err := ledger(ms, o); err != nil {
		return result{}, err
	}
	for _, id := range exp.IDs() {
		ms.set(figMetric(id), median(sets.perFig[id]))
	}
	ms.set("sim.gc_cpu_fraction", mem.GCCPUFraction)
	ms.set("overhead.run_s", median(sets.traced)-median(sets.plain))
	// The live layers do no work in this workload.
	for _, name := range []string{
		"failed_ratio", "client.request_us.p50", "client.request_us.p99", "client.items_per_request",
		"client.retries_per_kitem", "server.shed_items", "server.tcp_malformed", "tenant.shed_rate_items",
		"tenant.shed_buffer_items", "cluster.forwarded_share", "cluster.forward_fallbacks",
		"runtime.timer_wakes_per_kitem", "runtime.forced_wakes_per_kitem", "runtime.overflows_per_kitem",
		"handler.items_per_batch", "runtime.wait_p99_ms", "runtime.drain_p99_us",
		"os.runqueue_wait_ms_per_s", "os.involuntary_switches_per_kitem", "gen.lag_p99_ms", "gen.cpu_us_per_item",
		"trace.gen.self_us_per_item", "trace.handler.self_us_per_item", "trace.gen_to_handler_p99_ms",
		"trace.unlinked_batches", "overhead.cpu_us_per_item", "overhead.latency_p99_ms",
		"overhead.wakeups_per_kitem", "overhead.os_wakeups_per_kitem",
	} {
		ms.set(name, 0)
	}
	return result{Correct: true, Attempted: sets.tables, Metrics: ms.m}, ms.err
}
