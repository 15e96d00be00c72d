package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/impls"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// The layer ledger times each layer's public entry points in
// isolation, fed with the workload's own items: ns and allocations per
// item, the median of ledgerRounds rounds after one warm-up round.
const (
	ledgerRounds = 5
	ledgerItems  = 1 << 14
)

// ledgerInput is a sample of the workload's items: stream keys and
// "<seq> <due>" payloads in schedule order.
type ledgerInput struct {
	keys   []string
	stream []int
	items  [][]byte
	lat    []int64 // a latency-like value per item, for histogram records
}

func workloadInput(o options) (*ledgerInput, error) {
	in := &ledgerInput{}
	var sched []arrival
	if o.workload == wSimRepro {
		base := exp.MultiBase(5, simtime.Second, o.seed, 25)
		for i, tr := range base.Traces {
			in.keys = append(in.keys, fmt.Sprintf("fig9-%d", i))
			for _, at := range tr.Arrivals {
				sched = append(sched, arrival{at: int64(at), stream: int32(i)})
			}
		}
	} else {
		sc, err := scenario(o.workload, o.seed, time.Second)
		if err != nil {
			return nil, err
		}
		for _, st := range sc.Streams {
			in.keys = append(in.keys, st.Key)
		}
		sched = schedule(sc)
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("workload %s has no items at seed %d", o.workload, o.seed)
	}
	seq := make([]int64, len(in.keys))
	for i := 0; i < ledgerItems; i++ {
		a := sched[i%len(sched)]
		seq[a.stream]++
		in.stream = append(in.stream, int(a.stream))
		in.items = append(in.items, appendItem(nil, seq[a.stream], a.at))
		in.lat = append(in.lat, a.at%int64(200*time.Millisecond))
	}
	return in, nil
}

// cost is one ledger row: per-item wall time and heap allocations.
type cost struct{ ns, allocs float64 }

// measure times fn, which handles n items per call. prep, when not
// nil, runs untimed before every round.
func measure(n int, prep, fn func() error) (cost, error) {
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for r := -1; r < ledgerRounds; r++ { // round -1 warms up
		if prep != nil {
			if err := prep(); err != nil {
				return cost{}, err
			}
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		err := fn()
		took := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return cost{}, err
		}
		if r < 0 {
			continue
		}
		ns = append(ns, float64(took.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return cost{median(ns), median(allocs)}, nil
}

// ledgerRuntime is a pcd-shaped runtime with room for a whole ledger
// round per pair and short drain deadlines, so timed Puts never
// overflow and rounds drain quickly.
func ledgerRuntime() (*repro.Runtime, error) {
	return repro.New(
		repro.WithSlotSize(2*time.Millisecond),
		repro.WithMaxLatency(20*time.Millisecond),
		repro.WithBuffer(4*ledgerItems),
		repro.WithMaxPairs(64),
	)
}

// ledger measures every row and records it in ms.
func ledger(ms *metricSet, o options) error {
	in, err := workloadInput(o)
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		run  func(*metricSet, *ledgerInput, options) error
	}{
		{"put", ledgerPut}, {"server ingest", ledgerServer}, {"tcp line", ledgerTCP},
		{"http request", ledgerHTTP}, {"tenant", ledgerTenant}, {"cluster", ledgerCluster},
		{"obs", ledgerObs}, {"sim", ledgerSim},
	}
	for _, row := range rows {
		if err := row.run(ms, in, o); err != nil {
			return fmt.Errorf("ledger %s: %w", row.name, err)
		}
	}
	return nil
}

// awaitDrained waits until rt has delivered everything it accepted.
func awaitDrained(rt *repro.Runtime) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := rt.Stats()
		if st.ItemsOut+st.ItemsDropped == st.ItemsIn {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("runtime did not drain: in %d out %d", st.ItemsIn, st.ItemsOut)
		}
		time.Sleep(time.Millisecond)
	}
}

// putAll puts items through p from g goroutines, retrying overflows.
func putAll(p *repro.Pair[[]byte], items [][]byte, g int) error {
	var wg sync.WaitGroup
	errs := make([]error, g)
	chunk := (len(items) + g - 1) / g
	for w := 0; w < g; w++ {
		part := items[min(w*chunk, len(items)):min((w+1)*chunk, len(items))]
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, it := range part {
				for {
					err := p.Put(it)
					if err == nil {
						break
					}
					if !errors.Is(err, repro.ErrOverflow) {
						errs[w] = err
						return
					}
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ledgerPut times Put and PutBatch on the concurrent-producer queue pcd
// runs, and Put on the default single-producer queue for reference.
func ledgerPut(ms *metricSet, in *ledgerInput, _ options) error {
	rt, err := ledgerRuntime()
	if err != nil {
		return err
	}
	defer rt.Close()
	open := func(opts ...repro.PairOption) (*repro.Pair[[]byte], error) {
		return repro.Open(rt, repro.Batch(func([][]byte) {}), opts...)
	}
	conc, err := open(repro.ConcurrentProducers())
	if err != nil {
		return err
	}
	sp, err := open()
	if err != nil {
		return err
	}
	n := len(in.items)
	prep := func() error { return awaitDrained(rt) }
	rows := []struct {
		name string
		p    *repro.Pair[[]byte]
		g    int
	}{{"ledger.put.c1", conc, 1}, {"ledger.put.c2", conc, 2}, {"ledger.put_sp", sp, 1}}
	for _, row := range rows {
		p, g := row.p, row.g
		c, err := measure(n, prep, func() error { return putAll(p, in.items, g) })
		if err != nil {
			return err
		}
		ms.set(row.name+".ns_per_item", c.ns)
		if row.name != "ledger.put_sp" {
			ms.set(row.name+".allocs_per_item", c.allocs)
		}
	}
	c, err := measure(n, prep, func() error {
		for off := 0; off < n; off += 64 {
			batch := in.items[off:min(off+64, n)]
			for len(batch) > 0 {
				k, err := conc.PutBatch(batch)
				batch = batch[k:]
				if err != nil && !errors.Is(err, repro.ErrOverflow) {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("ledger.putbatch.ns_per_item", c.ns)
	ms.set("ledger.putbatch.allocs_per_item", c.allocs)
	return nil
}

func discardHandler(string) func([][]byte) { return func([][]byte) {} }

// ledgerServer times Server.IngestForwarded, the node-local ingest
// path every face shares, with 1-item and 64-item batches.
func ledgerServer(ms *metricSet, in *ledgerInput, _ options) error {
	rt, err := ledgerRuntime()
	if err != nil {
		return err
	}
	defer rt.Close()
	srv, err := server.New(server.Config{Runtime: rt, HandlerFor: discardHandler, PairOptions: pairOptions})
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())
	n := len(in.items)
	for _, b := range []int{1, 64} {
		c, err := measure(n, func() error { return awaitDrained(rt) }, func() error {
			for off := 0; off < n; off += b {
				end := min(off+b, n)
				key := in.keys[in.stream[off]]
				if _, err := srv.IngestForwarded("", key, in.items[off:end]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("ledger.server_ingest.b%d", b)
		ms.set(name+".ns_per_item", c.ns)
		ms.set(name+".allocs_per_item", c.allocs)
	}
	return nil
}

// ledgerTCP streams the workload's lines over one loopback connection
// and times them until the node has read them all.
func ledgerTCP(ms *metricSet, in *ledgerInput, _ options) error {
	rt, err := ledgerRuntime()
	if err != nil {
		return err
	}
	defer rt.Close()
	srv, err := server.New(server.Config{Runtime: rt, TCPAddr: "127.0.0.1:0", HandlerFor: discardHandler, PairOptions: pairOptions})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())
	conn, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		return err
	}
	defer conn.Close()
	var lines []byte
	for i, it := range in.items {
		lines = append(lines, in.keys[in.stream[i]]...)
		lines = append(lines, ' ')
		lines = append(lines, it...)
		lines = append(lines, '\n')
	}
	n := len(in.items)
	c, err := measure(n, func() error { return awaitDrained(rt) }, func() error {
		st := rt.Stats()
		want := st.ItemsIn + st.Overflows + uint64(n)
		if _, err := conn.Write(lines); err != nil {
			return err
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := rt.Stats()
			if st.ItemsIn+st.Overflows >= want {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("tcp ledger: node read %d of %d lines", st.ItemsIn+st.Overflows, want)
			}
			time.Sleep(20 * time.Microsecond)
		}
	})
	if err != nil {
		return err
	}
	ms.set("ledger.tcp_line.ns_per_line", c.ns)
	ms.set("ledger.tcp_line.allocs_per_line", c.allocs)
	return nil
}

// ledgerHTTP times 64-item ingest POSTs over loopback, client and
// server in this process (so allocations count both sides).
func ledgerHTTP(ms *metricSet, in *ledgerInput, _ options) error {
	rt, err := ledgerRuntime()
	if err != nil {
		return err
	}
	defer rt.Close()
	srv, err := server.New(server.Config{Runtime: rt, HandlerFor: discardHandler, PairOptions: pairOptions})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())
	const requests = 200
	bodies := make([][]byte, requests)
	urls := make([]string, requests)
	for r := range bodies {
		off := (r * 64) % (len(in.items) - 64)
		bodies[r] = bytes.Join(in.items[off:off+64], []byte("\n"))
		urls[r] = "http://" + srv.Addr() + "/ingest/" + in.keys[in.stream[off]]
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	c, err := measure(requests, func() error { return awaitDrained(rt) }, func() error {
		for r := range bodies {
			resp, err := hc.Post(urls[r], "text/plain", bytes.NewReader(bodies[r]))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("http ledger: status %d", resp.StatusCode)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("ledger.http_request.us", c.ns/1e3)
	ms.set("ledger.http_request.allocs", c.allocs)
	return nil
}

// ledgerTenant times rate admission and a buffer acquire+release.
func ledgerTenant(ms *metricSet, in *ledgerInput, _ options) error {
	reg, err := tenant.NewRegistry(fleetTenantsFile())
	if err != nil {
		return err
	}
	tn := reg.Authorize(tenantKey(0))
	if tn == nil {
		return fmt.Errorf("tenant key rejected")
	}
	n := len(in.items)
	c, err := measure(n, nil, func() error {
		for i := 0; i < n; i++ {
			tn.AdmitRate(1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("ledger.tenant_admit.ns", c.ns)
	c, err = measure(n, nil, func() error {
		for i := 0; i < n; i++ {
			if tn.AcquireBuffer(1) != 1 {
				return fmt.Errorf("tenant buffer refused")
			}
			tn.ReleaseBuffer(1)
		}
		return reg.Pool().CheckInvariant()
	})
	if err != nil {
		return err
	}
	ms.set("ledger.tenant_buffer.ns", c.ns)
	return nil
}

// ledgerCluster times the forward frame codec on 64-item chunks and one
// Node.Forward round trip over loopback.
func ledgerCluster(ms *metricSet, in *ledgerInput, _ options) error {
	n := len(in.items) / 64 * 64
	frames := make([][]byte, 0, n/64)
	var bytesOut int
	c, err := measure(n, nil, func() error {
		frames = frames[:0]
		bytesOut = 0
		for off := 0; off < n; off += 64 {
			b, err := cluster.EncodeFrame(cluster.Frame{Type: cluster.FrameForward, From: "node-0",
				Key: in.keys[in.stream[off]], Items: cluster.EncodeItems(in.items[off : off+64])})
			if err != nil {
				return err
			}
			frames = append(frames, b)
			bytesOut += len(b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("ledger.cluster_encode.ns_per_item", c.ns)
	ms.set("ledger.cluster_frame.bytes_per_item", float64(bytesOut)/float64(n))
	c, err = measure(n, nil, func() error {
		for i, b := range frames {
			f, err := cluster.DecodeFrame(b)
			if err != nil {
				return err
			}
			items, err := cluster.DecodeItems(f.Items)
			if err != nil {
				return err
			}
			if !bytes.Equal(items[0], in.items[i*64]) {
				return fmt.Errorf("cluster codec round trip changed an item")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("ledger.cluster_decode.ns_per_item", c.ns)

	us, err := forwardCost(in)
	if err != nil {
		return err
	}
	ms.set("ledger.cluster_forward.us_per_call", us)
	return nil
}

// forwardCost builds a two-node cluster over loopback and times
// Node.Forward of 64-item batches to a stream the peer owns.
func forwardCost(in *ledgerInput) (float64, error) {
	s := &sut{}
	defer s.close(context.Background())
	for i := 0; i < 2; i++ {
		rt, err := ledgerRuntime()
		if err != nil {
			return 0, err
		}
		s.rts = append(s.rts, rt)
		srv, err := server.New(server.Config{Runtime: rt, HandlerFor: discardHandler, PairOptions: pairOptions})
		if err != nil {
			return 0, err
		}
		s.srvs = append(s.srvs, srv)
		ccfg := cluster.Config{NodeID: fmt.Sprintf("node-%d", i), ListenAddr: "127.0.0.1:0"}
		if i > 0 {
			ccfg.Seeds = map[string]string{"node-0": s.nodes[0].Addr()}
		}
		node, err := cluster.NewNode(ccfg, srv)
		if err != nil {
			return 0, err
		}
		s.nodes = append(s.nodes, node)
		srv.SetRouter(node)
	}
	if err := s.awaitFleet(in.keys, 10*time.Second); err != nil {
		return 0, err
	}
	key := ""
	for _, k := range in.keys {
		if !s.nodes[0].Resolve(k).Local {
			key = k
			break
		}
	}
	if key == "" {
		return 0, fmt.Errorf("no stream owned by node-1")
	}
	const calls = 200
	c, err := measure(calls, func() error { return awaitDrained(s.rts[1]) }, func() error {
		for i := 0; i < calls; i++ {
			off := (i * 64) % (len(in.items) - 64)
			res, err := s.nodes[0].Forward("", key, in.items[off:off+64])
			if err != nil {
				return err
			}
			if res.Accepted != 64 {
				return fmt.Errorf("forward accepted %d of 64", res.Accepted)
			}
		}
		return nil
	})
	return c.ns / 1e3, err
}

// ledgerObs times one latency-histogram record.
func ledgerObs(ms *metricSet, in *ledgerInput, _ options) error {
	h := obs.NewHistogram()
	c, err := measure(len(in.lat), nil, func() error {
		for _, v := range in.lat {
			h.Record(v)
		}
		return nil
	})
	ms.set("ledger.obs_record.ns", c.ns)
	return err
}

// ledgerSim times the simulator layers at the run's seed: trace
// generation, the PBPL event loop and two baselines in the FIG9
// configuration.
func ledgerSim(ms *metricSet, _ *ledgerInput, o options) error {
	const dur = 2 * simtime.Second
	probe := trace.Generate(trace.Constant(offeredRate), simtime.Second, o.seed)
	c, err := measure(probe.Count(), nil, func() error {
		trace.Generate(trace.Constant(offeredRate), simtime.Second, o.seed)
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("sim.trace_gen.ns_per_item", c.ns)

	cfg := fig9Config(o.seed, dur)
	rep, err := core.Run(cfg)
	if err != nil {
		return err
	}
	c, err = measure(int(rep.Produced), nil, func() error {
		r, err := core.Run(cfg)
		if err != nil {
			return err
		}
		return r.Validate()
	})
	if err != nil {
		return err
	}
	ms.set("sim.pbpl.ns_per_item", c.ns)
	ms.set("sim.pbpl.allocs_per_item", c.allocs)
	for _, alg := range []impls.Algorithm{impls.BP, impls.Mutex} {
		c, err := measure(int(rep.Produced), nil, func() error {
			r, err := impls.Run(alg, cfg.Base)
			if err != nil {
				return err
			}
			return r.Validate()
		})
		if err != nil {
			return err
		}
		ms.set(fmt.Sprintf("sim.baseline.%s.ns_per_item", alg), c.ns)
		ms.set(fmt.Sprintf("sim.baseline.%s.allocs_per_item", alg), c.allocs)
	}
	return nil
}
