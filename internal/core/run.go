package core

import (
	"repro/internal/buffer"
	"repro/internal/faults"
	"repro/internal/impls"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/track"
)

// Run executes PBPL (or a configured ablation) against the workload and
// returns its metrics report. The architecture follows Fig. 5: one core
// manager per core, consumers partitioned across cores (pair i on core
// i mod Cores, disjoint sets C_αl), one global buffer pool of
// Bg = B0 · M shared by all consumers.
func Run(cfg Config) (metrics.Report, error) {
	if err := cfg.Validate(); err != nil {
		return metrics.Report{}, err
	}
	cfg = cfg.normalized()
	base := cfg.Base

	if base.ConsumerCores == 0 {
		base.ConsumerCores = 1
	}
	machine := sim.NewMachine(base.Cores, base.Model)
	m := &metrics.Collector{}
	tr := track.New(cfg.SlotSize, 0)

	managers := make([]*coreManager, base.ConsumerCores)
	for i := range managers {
		managers[i] = newCoreManager(machine.Core(i), machine.Loop, tr)
	}

	pairs := len(base.Traces)
	pool := buffer.NewPool(base.Buffer, cfg.MinQuota)
	for id := 0; id < pairs; id++ {
		if err := pool.Add(id); err != nil {
			return metrics.Report{}, err
		}
	}

	model := base.Model
	planner := cfg.Planner(base)

	consumers := make([]*consumer, pairs)
	for i := range consumers {
		cm := managers[i%base.ConsumerCores]
		// Per-pair response latencies (§IV): each consumer plans with
		// its own bound over the shared track.
		pl := planner
		if len(cfg.MaxLatencies) > 0 {
			own := *planner
			own.MaxLatency = cfg.MaxLatencies[i]
			pl = &own
		}
		consumers[i] = &consumer{
			id:             i,
			cm:             cm,
			cmIndex:        i % base.ConsumerCores,
			core:           cm.core,
			loop:           machine.Loop,
			pool:           pool,
			pred:           cfg.Predictor(),
			m:              m,
			planner:        pl,
			traceSink:      base.TraceSink,
			quota:          base.Buffer,
			reservedSlot:   -1,
			perItemWork:    base.PerItemWork,
			invokeOverhead: base.InvokeOverhead,
		}
		if len(cfg.FaultProfiles) > 0 {
			if pr := cfg.FaultProfiles[i]; !pr.Zero() {
				consumers[i].inj = faults.NewInjector(pr)
			}
			consumers[i].quarantineAfter = cfg.QuarantineAfter
		}
	}

	for i, t := range base.Traces {
		c := consumers[i]
		pcore := producerCoreFor(machine, base, i)
		if pcore == nil {
			feedTrace(machine.Loop, t.Arrivals, c.onArrival)
			continue
		}
		work := base.ProducerWork
		feedTrace(machine.Loop, t.Arrivals, func(at simtime.Time) {
			pcore.RunFor(work)
			c.onArrival(at)
		})
	}

	// The consolidation control plane: a periodic event snapshots every
	// consumer's predicted rate and host manager, plans, and applies the
	// moves — the sim mirror of the live runtime's placement controller.
	var migrations uint64
	var placePl *place.Planner
	if cfg.Consolidate && base.ConsumerCores > 1 {
		pl, err := place.NewPlanner(place.Config{
			Managers:   base.ConsumerCores,
			BudgetRate: cfg.PlaceBudgetRate,
		})
		if err != nil {
			return metrics.Report{}, err
		}
		placePl = pl
		interval := simtime.Time(cfg.PlaceInterval)
		end := simtime.Time(base.Duration())
		var replan func()
		replan = func() {
			snap := make([]place.Pair, len(consumers))
			for i, c := range consumers {
				rate := c.pred.Predict()
				if c.quarantined {
					// A quarantined consumer never drains again; its
					// stale predicted rate must not count as load.
					rate = 0
				}
				snap[i] = place.Pair{
					ID:       i,
					Manager:  c.cmIndex,
					Rate:     rate,
					Buffered: c.buf.Len(),
				}
			}
			plan := pl.Plan(snap)
			for _, mv := range plan.Moves {
				consumers[mv.Pair].migrate(managers[mv.To], mv.To)
				migrations++
			}
			if next := machine.Loop.Now() + interval; next < end {
				machine.Loop.Schedule(next, replan)
			}
		}
		machine.Loop.Schedule(interval, replan)
	}

	// The power-cap control plane: a periodic event measures windowed
	// estimated power over every core and walks the throttle ladder —
	// inflating placement budgets (pack pairs onto fewer cores),
	// scaling every planner's ω (consumers batch harder inside their
	// latency bounds) and lowering the cores' DVFS operating point —
	// to keep the smoothed estimate under the budget. Sim mirror of
	// the live runtime's WithPowerCap controller.
	var capCtl *CapControl
	minFreq := 1.0
	if cfg.PowerCapMilliwatts > 0 {
		capCtl = NewCapControl(cfg.PowerCapMilliwatts, cfg.PowerCapPace)
		omegaScale := planner.Scale
		if omegaScale == nil {
			// Per-pair planner copies made above share this handle, so
			// one Set throttles every consumer.
			omegaScale = &OmegaScale{}
			planner.Scale = omegaScale
			for _, c := range consumers {
				c.planner.Scale = omegaScale
			}
		}
		baseBudget := cfg.PlaceBudgetRate
		if baseBudget <= 0 {
			baseBudget = place.DefaultBudgetRate
		}
		idleFloor := model.IdleFloorMilliwatts(base.Cores)
		interval := simtime.Time(cfg.PowerCapInterval)
		end := simtime.Time(base.Duration())
		var lastE float64
		var lastT simtime.Time
		tick := func() {}
		tick = func() {
			now := machine.Loop.Now()
			res := machine.Snapshot()
			var e float64
			for i := 0; i < base.Cores; i++ {
				e += model.EnergyMillijoules(res[i])
			}
			if dt := now.Sub(lastT); dt > 0 {
				// Application-attributable power: energy above the
				// all-idle floor, over every core (consumer managers
				// and producers alike — all carry an operating point).
				// The constant background draw is excluded — no
				// throttle can remove it, so a cap that included it
				// would go infeasible at light load.
				win := (e-lastE)/dt.Seconds() - idleFloor
				if capCtl.Observe(win) {
					st := capCtl.Step()
					omegaScale.Set(st.OmegaScale)
					if placePl != nil {
						budgets := make([]float64, base.ConsumerCores)
						for i := range budgets {
							budgets[i] = baseBudget * st.BudgetScale
						}
						placePl.SetBudgets(budgets)
					}
					for i := 0; i < base.Cores; i++ {
						machine.Core(i).SetFrequency(st.Freq)
					}
					if st.Freq < minFreq {
						minFreq = st.Freq
					}
				}
				if cfg.CapTrace != nil {
					cfg.CapTrace(now, capCtl.Smoothed(), capCtl.StepIndex())
				}
				lastE, lastT = e, now
			}
			if next := now + interval; next < end {
				machine.Loop.Schedule(next, tick)
			}
		}
		machine.Loop.Schedule(interval, tick)
	}

	machine.Loop.RunUntil(simtime.Time(base.Duration()))
	for _, c := range consumers {
		c.flush()
	}

	// Assemble the report (mirrors impls.report, which is unexported
	// and parameterized on the impls.Algorithm type).
	res := machine.Finish()
	dur := base.Duration()
	// Consumer-core attribution for wakeups/usage, board-level power —
	// matching the baseline harness (see impls.report).
	var usageMs, shallowMs, idleMs float64
	var wakeups uint64
	for i, r := range res {
		if i < base.ConsumerCores {
			usageMs += float64(r.Active) / float64(simtime.Millisecond)
			shallowMs += float64(r.Shallow) / float64(simtime.Millisecond)
			idleMs += float64(r.Idle) / float64(simtime.Millisecond)
			wakeups += r.Wakeups
		}
	}
	var scheduled uint64
	for _, cm := range managers {
		scheduled += cm.scheduledWakes
	}
	avgBuffer := float64(base.Buffer)
	if !cfg.DisableResizing && pool.MeanQuota() > 0 {
		avgBuffer = pool.MeanQuota()
	}
	rep := metrics.Report{
		Impl:              cfg.ImplName(),
		Pairs:             pairs,
		Cores:             base.Cores,
		Duration:          dur,
		Produced:          m.Produced,
		Consumed:          m.Consumed,
		Dropped:           m.Dropped,
		Quarantines:       m.Quarantines,
		Wakeups:           wakeups,
		AttributedWakeups: wakeups,
		Invocations:       m.Invocations,
		ScheduledWakeups:  scheduled,
		Overflows:         m.Overflows,
		Migrations:        migrations,
		UsageMs:           usageMs,
		ShallowMs:         shallowMs,
		DeepIdleMs:        idleMs,
		PowerMilliwatts:   model.ExtraPowerMilliwatts(res, dur),
		EnergyMillijoules: model.TotalEnergyMillijoules(res, dur),
		AvgBufferQuota:    avgBuffer,
		CapMilliwatts:     cfg.PowerCapMilliwatts,
		MaxLatency:        m.MaxLatency,
		SumLatency:        m.SumLatency,
		LatencyP50:        m.Latencies.Percentile(50),
		LatencyP99:        m.Latencies.Percentile(99),
	}
	if capCtl != nil {
		rep.ThrottleEvents = capCtl.ThrottleEvents()
		rep.MinFrequency = minFreq
	}
	if err := pool.CheckInvariant(); err != nil {
		return rep, err
	}
	return rep, nil
}

// producerCoreFor mirrors the baseline harness's producer placement:
// producers round-robin over the non-consumer cores, or run externally
// (nil) when there is no spare core or no producer cost.
func producerCoreFor(machine *sim.Machine, base impls.Config, i int) *sim.Core {
	spare := base.Cores - base.ConsumerCores
	if spare <= 0 || base.ProducerWork <= 0 {
		return nil
	}
	return machine.Core(base.ConsumerCores + i%spare)
}

// feedTrace chains arrival events so the heap stays O(pairs); identical
// in spirit to the baseline harness's feed.
func feedTrace(loop *simtime.Loop, arrivals []simtime.Time, onArrival func(simtime.Time)) {
	if len(arrivals) == 0 {
		return
	}
	var idx int
	var step func()
	step = func() {
		at := arrivals[idx]
		onArrival(at)
		idx++
		if idx < len(arrivals) {
			loop.Schedule(arrivals[idx], step)
		}
	}
	loop.Schedule(arrivals[0], step)
}

// Name is the canonical implementation label used in figures.
const Name = "pbpl"
