package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/tenant"
)

// streamSink is the benchmark handler's per-stream ledger.
type streamSink struct {
	mu   sync.Mutex
	last int64 // highest sequence number delivered
	n    int64 // items delivered
}

// Latency histogram: fixed buckets, so recording allocates nothing and
// the handler's own memory stays flat for the whole run.
const (
	latBucket  = 10 * time.Microsecond
	latBuckets = int(2500 * time.Millisecond / latBucket)
)

// latencyHist counts due → handler-entry latencies.
type latencyHist struct {
	counts []atomic.Uint32 // the last bucket also takes everything beyond
}

func newLatencyHist() *latencyHist { return &latencyHist{counts: make([]atomic.Uint32, latBuckets)} }

func (h *latencyHist) record(ns int64) {
	i := int(ns / int64(latBucket))
	h.counts[min(max(i, 0), latBuckets-1)].Add(1)
}

// quantile returns the q-quantile, interpolated linearly inside its
// bucket.
func (h *latencyHist) quantile(q float64) time.Duration {
	var total uint64
	for i := range h.counts {
		total += uint64(h.counts[i].Load())
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total-1)) + 1
	var seen uint64
	for i := range h.counts {
		c := uint64(h.counts[i].Load())
		if seen+c >= rank {
			frac := float64(rank-seen) / float64(c)
			return time.Duration(i)*latBucket + time.Duration(frac*float64(latBucket))
		}
		seen += c
	}
	return time.Duration(latBuckets) * latBucket
}

// sink is the consumer handler the benchmark owns: it checks that every
// stream's items arrive once and in order, and timestamps each item's
// entry into the handler.
type sink struct {
	mu      sync.Mutex
	streams map[string]*streamSink
	index   map[string]int32 // stream key → schedule index, for spans
	lat     *latencyHist

	delivered  atomic.Int64
	batches    atomic.Int64
	violations atomic.Int64 // out-of-order, duplicate or unparseable items
	target     atomic.Int64 // delivery count that closes done; -1 until known
	doneOnce   sync.Once
	done       chan struct{}

	log *spanLog
}

func newSink(keys []string, log *spanLog) *sink {
	k := &sink{
		streams: map[string]*streamSink{},
		index:   map[string]int32{},
		lat:     newLatencyHist(),
		done:    make(chan struct{}),
		log:     log,
	}
	for i, key := range keys {
		k.index[key] = int32(i)
	}
	k.target.Store(-1)
	return k
}

func (k *sink) stream(key string) *streamSink {
	k.mu.Lock()
	defer k.mu.Unlock()
	st := k.streams[key]
	if st == nil {
		st = &streamSink{}
		k.streams[key] = st
	}
	return st
}

// handlerFor builds node's consumer handler for a stream. A stream's
// handler may exist on both fleet nodes (after a migration), so the
// per-stream state is shared and locked.
func (k *sink) handlerFor(node int) func(key string) func([][]byte) {
	return func(key string) func([][]byte) {
		st := k.stream(key)
		idx, known := k.index[key]
		return func(batch [][]byte) {
			entry := time.Now()
			now := entry.UnixNano()
			var first int64
			bad := 0
			st.mu.Lock()
			for i, it := range batch {
				seq, due, ok := parseItem(it)
				if !ok || seq <= st.last {
					bad++
					continue
				}
				if i == 0 {
					first = seq
				}
				st.last = seq
				st.n++
				k.lat.record(now - due)
			}
			last := st.last
			st.mu.Unlock()
			if bad > 0 {
				k.violations.Add(int64(bad))
			}
			k.batches.Add(1)
			if k.log != nil && known {
				k.log.add(span{Kind: spanHandler, Node: node, Start: now, End: time.Now().UnixNano(),
					Items: len(batch), Ranges: []seqRange{{Stream: idx, Lo: first, Hi: last}}})
			}
			if n := k.delivered.Add(int64(len(batch) - bad)); n == k.target.Load() {
				k.doneOnce.Do(func() { close(k.done) })
			}
		}
	}
}

// expect arms done for n delivered items (closing it at once if they
// have all arrived already).
func (k *sink) expect(n int64) {
	k.target.Store(n)
	if k.delivered.Load() >= n {
		k.doneOnce.Do(func() { close(k.done) })
	}
}

// deliveredBy returns items delivered per stream key.
func (k *sink) deliveredBy() map[string]int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := map[string]int64{}
	for key, st := range k.streams {
		st.mu.Lock()
		out[key] = st.n
		st.mu.Unlock()
	}
	return out
}

// sut is the system under test for a live workload: one pcd node
// (tcp-zipf) or a two-node cluster sharing one tenant registry
// (http-fleet), built from the public constructors the pcd daemon uses.
type sut struct {
	rts   []*repro.Runtime
	srvs  []*server.Server
	nodes []*cluster.Node
	reg   *tenant.Registry
}

// runtimeOptions are pcd's default runtime flags (-slot 10ms -latency
// 200ms -managers 1 -max-pairs 64) with the workload's buffer B0 and
// quota resizing off.
func runtimeOptions(workload string, traced bool) []repro.Option {
	opts := []repro.Option{
		repro.WithSlotSize(10 * time.Millisecond),
		repro.WithMaxLatency(200 * time.Millisecond),
		repro.WithManagers(1),
		repro.WithMaxPairs(64),
	}
	switch workload {
	case wTCPZipf:
		opts = append(opts, repro.WithBuffer(tcpBuffer), repro.WithoutResizing())
	case wHTTPFleet:
		opts = append(opts, repro.WithBuffer(fleetBuffer), repro.WithoutResizing())
	}
	if traced {
		opts = append(opts, repro.WithHistograms(), repro.WithTimeline(4096))
	}
	return opts
}

// pairOptions mirrors pcd's default per-stream fault policy.
func pairOptions(string) []repro.PairOption {
	return []repro.PairOption{repro.HandlerTimeout(0), repro.Breaker(3), repro.Redelivery(3)}
}

// Buffer B0 per workload, sized so that no item is shed: the benchmark
// measures the cost of serving the load, and pcd answers an overflow by
// dropping the item. Quota resizing is off, so every pair holds B0 for
// the whole 200 ms latency bound: 4096 covers tcp-zipf's head stream
// (about 11k items/s), 2048 the fleet's peak stream (4k items/s).
// NOTES.md records the shedding measured at pcd's defaults.
const (
	tcpBuffer   = 4096
	fleetBuffer = 2048
)

// fleetTenantsFile is the http-fleet registry: two tenants whose rate
// and buffer budgets sit above the offered load, so admission is
// exercised on every request without shedding.
func fleetTenantsFile() tenant.File {
	f := tenant.File{GlobalBuffer: 65536}
	for t := 0; t < fleetTenants; t++ {
		f.Tenants = append(f.Tenants, tenant.Spec{
			ID: tenantID(t), Keys: []string{tenantKey(t)},
			Rate: 4 * offeredRate, Burst: 4 * offeredRate, Buffer: 32768,
		})
	}
	return f
}

// startSUT builds and starts the workload's system under test, and
// returns once it is ready to serve (for http-fleet: once both nodes
// see each other alive and agree on every stream's owner).
func startSUT(workload string, k *sink, traced bool) (*sut, error) {
	s := &sut{}
	switch workload {
	case wTCPZipf:
		if err := s.addNode(k, 0, workload, traced); err != nil {
			s.close(context.Background())
			return nil, err
		}
		return s, nil
	case wHTTPFleet:
		reg, err := tenant.NewRegistry(fleetTenantsFile())
		if err != nil {
			return nil, err
		}
		s.reg = reg
		for i := 0; i < 2; i++ {
			if err := s.addNode(k, i, workload, traced); err != nil {
				s.close(context.Background())
				return nil, err
			}
		}
		keys, _ := streamKeys(wHTTPFleet) // the workload name is known
		if err := s.awaitFleet(keys, 10*time.Second); err != nil {
			s.close(context.Background())
			return nil, err
		}
		return s, nil
	}
	return nil, fmt.Errorf("no system under test for workload %q", workload)
}

// addNode starts runtime, server and (for the fleet) cluster node i.
// Node 1 seeds itself with node 0's wire address; node 0 learns node 1
// from its first heartbeat. Neither advertises an HTTP address, so
// node 0 forwards node 1's streams instead of redirecting clients.
func (s *sut) addNode(k *sink, i int, workload string, traced bool) error {
	rt, err := repro.New(runtimeOptions(workload, traced)...)
	if err != nil {
		return err
	}
	s.rts = append(s.rts, rt)
	cfg := server.Config{
		Runtime:     rt,
		HTTPAddr:    "127.0.0.1:0",
		HandlerFor:  k.handlerFor(i),
		PairOptions: pairOptions,
		Tenants:     s.reg,
	}
	if workload == wTCPZipf {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if s.reg != nil {
		ccfg := cluster.Config{NodeID: fmt.Sprintf("node-%d", i), ListenAddr: "127.0.0.1:0"}
		if i > 0 {
			ccfg.Seeds = map[string]string{"node-0": s.nodes[0].Addr()}
		}
		node, err := cluster.NewNode(ccfg, srv)
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, node)
		srv.SetRouter(node)
	}
	if err := srv.Start(); err != nil {
		return err
	}
	s.srvs = append(s.srvs, srv)
	return nil
}

// awaitFleet waits until every node sees every peer alive and all
// nodes resolve each key to the same owner, with both nodes owning
// some keys.
func (s *sut) awaitFleet(keys []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if s.fleetReady(keys) {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("fleet did not converge")
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *sut) fleetReady(keys []string) bool {
	for _, n := range s.nodes {
		st := n.Status()
		if len(st.Peers) != len(s.nodes)-1 {
			return false
		}
		for _, p := range st.Peers {
			if p.State != "alive" {
				return false
			}
		}
	}
	owners := map[string]bool{}
	for _, key := range keys {
		o := s.nodes[0].Resolve(key).Owner
		for _, n := range s.nodes[1:] {
			if n.Resolve(key).Owner != o {
				return false
			}
		}
		owners[o] = true
	}
	return len(owners) == len(s.nodes)
}

// close stops cluster traffic, drains every server (flushing each pair
// through its handler) and closes the runtimes, in pcd's order.
func (s *sut) close(ctx context.Context) error {
	var errs []error
	for _, n := range s.nodes {
		errs = append(errs, n.Close())
	}
	for _, srv := range s.srvs {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for _, rt := range s.rts {
		errs = append(errs, rt.Close())
	}
	return errors.Join(errs...)
}

func (s *sut) stats() repro.Stats {
	var t repro.Stats
	for _, rt := range s.rts {
		st := rt.Stats()
		t.TimerWakes += st.TimerWakes
		t.ForcedWakes += st.ForcedWakes
		t.Invocations += st.Invocations
		t.ItemsIn += st.ItemsIn
		t.ItemsOut += st.ItemsOut
		t.Overflows += st.Overflows
		t.ItemsDropped += st.ItemsDropped
		t.HandedOff += st.HandedOff
		t.Quarantines += st.Quarantines
	}
	return t
}

// httpURL is the fleet's single entry point (node 0).
func (s *sut) httpURL() string { return "http://" + s.srvs[0].Addr() }
