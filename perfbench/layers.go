package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
	"treadmill/internal/hist"
	"treadmill/internal/protocol"
	"treadmill/internal/server"
	"treadmill/internal/workload"
)

// kvTraced is the per-layer part of a live run: the load generator's
// figures from the untraced high run, the same run again with the
// program's server-timing trailer and anatomy ledger on, and the replays
// of the run's own request stream and latencies through single layers.
func kvTraced(c *runCtx, e *kvEnv, x *expected, high *phaseResult,
	run func(name string, rate float64, round int, dur time.Duration, agg *anatomy.Aggregator) (*phaseResult, error),
	root *spanRef) error {
	sent := int64(high.stats.Sent)
	late := append([]float64(nil), high.late...)
	c.set("loadgen.late_p50_us", quantile(late, 0.5), int64(len(late)))
	c.set("loadgen.late_p99_us", quantile(late, 0.99), int64(len(late)))
	c.set("loadgen.late_frac", float64(high.stats.LateSends)/float64(max(sent, 1)), sent)
	done := append([]float64(nil), high.done...)
	c.set("loadgen.send_done_p50_us", quantile(done, 0.5), int64(len(done)))
	c.set("loadgen.send_done_p99_us", quantile(done, 0.99), int64(len(done)))

	acfg := anatomy.DefaultConfig()
	acfg.Source = anatomy.SourceLive
	agg, err := anatomy.NewAggregator(acfg)
	if err != nil {
		return err
	}
	// The first round's stream for the whole level's duration.
	traced, err := run("traced", high.rate, 0, high.dur, agg)
	if err != nil {
		return err
	}
	c.set("trace.p50_overhead_frac", (traced.p50-high.p50)/high.p50, int64(len(traced.lat)))
	setPhases(c, agg.Finalize())

	rp := root.child("replay")
	defer rp.end()
	if err := replayStream(c, e, x, high, rp); err != nil {
		return err
	}
	lat := make([]float64, len(traced.lat))
	for i, v := range traced.lat {
		lat[i] = v / 1e6
	}
	_, err = replayObservers(c, rp, lat, traced.vecs, anatomy.SourceLive)
	return err
}

// replayStream regenerates the high run's request stream and replays it
// through workload.Generator, the protocol codec over in-memory buffers,
// a fresh server.Store, and the router's key-to-backend pick.
func replayStream(c *runCtx, e *kvEnv, x *expected, high *phaseResult, parent *spanRef) error {
	n := 100000
	if c.tiny {
		n = 5000
	}
	g, err := workload.NewGenerator(e.spec.cfg, dist.NewRNG(high.seed).Fork())
	if err != nil {
		return err
	}
	sp := parent.child("workload.Generator.Next")
	reqs := make([]*protocol.Request, n)
	t0 := time.Now()
	for i := range reqs {
		reqs[i] = g.Next()
	}
	c.set("workload.next_ns", nsPer(t0, n), int64(n))
	sp.end()

	// What each GET returns: the key's preloaded value.
	values := make([][]byte, n)
	for i, r := range reqs {
		if r.Op == protocol.OpGet {
			rank, _ := x.rank(r.Key)
			values[i] = x.value(rank)
		}
	}
	if err := replayProtocol(c, reqs, values, parent); err != nil {
		return err
	}
	if err := replayStore(c, x, reqs, parent); err != nil {
		return err
	}

	sp = parent.child("router.PickBackend")
	defer sp.end()
	rt := e.rt
	if rt == nil {
		if rt, err = newRouter(c, []string{e.servers[0].Addr()}, sp); err != nil {
			return err
		}
		defer rt.Close()
	}
	sum := 0
	t0 = time.Now()
	for _, r := range reqs {
		sum += rt.PickBackend(r.Key)
	}
	c.set("router.pick_ns", nsPer(t0, n), int64(n))
	if sum < 0 {
		return fmt.Errorf("router picked a negative backend")
	}
	return nil
}

// replayProtocol writes every request into a buffer, parses it back,
// writes every response and parses it back, timing each step.
func replayProtocol(c *runCtx, reqs []*protocol.Request, values [][]byte, parent *spanRef) error {
	n := len(reqs)
	sp := parent.child("protocol round trip")
	defer sp.end()
	var reqBuf, respBuf bytes.Buffer
	reqBuf.Grow(n * 64)
	respBuf.Grow(n * 64)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	s := sp.child("protocol.WriteRequest")
	w := bufio.NewWriter(&reqBuf)
	t0 := time.Now()
	for _, r := range reqs {
		if err := protocol.WriteRequest(w, r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	c.set("protocol.write_req_ns", nsPer(t0, n), int64(n))
	s.end()

	s = sp.child("protocol.ParseRequest")
	rd := bufio.NewReader(&reqBuf)
	t0 = time.Now()
	for i := range reqs {
		got, err := protocol.ParseRequest(rd)
		if err != nil {
			return err
		}
		if got.Op != reqs[i].Op || got.Key != reqs[i].Key || !bytes.Equal(got.Value, reqs[i].Value) {
			c.fail("protocol: request %d parsed back as %v %q", i, got.Op, got.Key)
		}
	}
	c.set("protocol.parse_req_ns", nsPer(t0, n), int64(n))
	s.end()

	s = sp.child("protocol.Write*Response")
	w = bufio.NewWriter(&respBuf)
	t0 = time.Now()
	for i, r := range reqs {
		var err error
		if r.Op == protocol.OpGet {
			err = protocol.WriteGetResponse(w, r.Key, 0, values[i], true)
		} else {
			err = protocol.WriteStatusResponse(w, "STORED")
		}
		if err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	c.set("protocol.write_resp_ns", nsPer(t0, n), int64(n))
	s.end()

	s = sp.child("protocol.ParseResponse")
	rd = bufio.NewReader(&respBuf)
	t0 = time.Now()
	for i, r := range reqs {
		got, err := protocol.ParseResponse(rd, r.Op)
		if err != nil {
			return err
		}
		if r.Op == protocol.OpGet && (!got.Hit || !bytes.Equal(got.Value, values[i])) {
			c.fail("protocol: response %d parsed back wrong", i)
		}
	}
	c.set("protocol.parse_resp_ns", nsPer(t0, n), int64(n))
	s.end()
	runtime.ReadMemStats(&m1)
	c.set("protocol.allocs_per_rt", float64(m1.Mallocs-m0.Mallocs)/float64(n), int64(n))
	c.attempt += int64(n)
	return nil
}

// replayStore preloads a fresh server.Store and replays the stream's GETs
// and SETs against it, each kind timed as one batch.
func replayStore(c *runCtx, x *expected, reqs []*protocol.Request, parent *spanRef) error {
	sp := parent.child("server.Store")
	defer sp.end()
	cfg := server.DefaultConfig()
	st, err := server.NewStore(cfg.Shards, cfg.CapacityBytes)
	if err != nil {
		return err
	}
	s := sp.child("preload")
	for rank := range x.preLen {
		if err := st.Set(x.gen.Key(rank), 0, x.value(rank)); err != nil {
			return err
		}
	}
	s.end()
	var gets, sets []*protocol.Request
	for _, r := range reqs {
		if r.Op == protocol.OpSet {
			sets = append(sets, r)
		} else {
			gets = append(gets, r)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s = sp.child("server.Store.Get")
	hits := 0
	t0 := time.Now()
	for _, r := range gets {
		if _, _, ok := st.Get(r.Key); ok {
			hits++
		}
	}
	if len(gets) > 0 {
		c.set("server.store_get_ns", nsPer(t0, len(gets)), int64(len(gets)))
		c.set("server.hit_frac", float64(hits)/float64(len(gets)), int64(len(gets)))
	}
	s.end()
	s = sp.child("server.Store.Set")
	t0 = time.Now()
	for _, r := range sets {
		if err := st.Set(r.Key, r.Flags, r.Value); err != nil {
			return err
		}
	}
	if len(sets) > 0 {
		c.set("server.store_set_ns", nsPer(t0, len(sets)), int64(len(sets)))
	}
	s.end()
	runtime.ReadMemStats(&m1)
	c.set("server.store_allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(len(reqs)), int64(len(reqs)))
	if hits != len(gets) {
		c.fail("store replay: %d of %d GETs missed a preloaded key", len(gets)-hits, len(gets))
	}
	c.attempt += int64(len(reqs))
	return nil
}

// replayObservers times hist.Histogram.Record over the run's own
// latencies (seconds) and anatomy.Aggregator.Record over its own phase
// vectors, and returns the replayed aggregator (nil without vectors).
func replayObservers(c *runCtx, parent *spanRef, lat []float64, vecs []anatomy.Vec, source string) (*anatomy.Aggregator, error) {
	if len(lat) == 0 {
		return nil, fmt.Errorf("no latencies to replay")
	}
	sp := parent.child("hist.Histogram.Record")
	h, err := hist.New(hist.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, v := range lat {
		if err := h.Record(v); err != nil {
			return nil, err
		}
	}
	c.set("hist.record_ns", nsPer(t0, len(lat)), int64(len(lat)))
	c.set("hist.rebins", float64(h.Rebins()), int64(len(lat)))
	sp.end()

	if len(vecs) == 0 {
		return nil, nil
	}
	sp = parent.child("anatomy.Aggregator.Record")
	defer sp.end()
	cfg := anatomy.DefaultConfig()
	cfg.Source = source
	agg, err := anatomy.NewAggregator(cfg)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for _, v := range vecs {
		agg.Record(v.Sum(), v)
	}
	c.set("anatomy.record_ns", nsPer(t0, len(vecs)), int64(len(vecs)))
	return agg, nil
}

// setPhases reports a breakdown's body and tail means of the live phases.
func setPhases(c *runCtx, b *anatomy.Breakdown) {
	for i, name := range anatomy.PhaseNames() {
		for _, p := range anatomyPhases {
			if p == name {
				c.set("anatomy."+p+"_us.body", b.Body.Mean[i]*1e6, int64(b.Body.Count))
				c.set("anatomy."+p+"_us.tail", b.Tail.Mean[i]*1e6, int64(b.Tail.Count))
			}
		}
	}
}

// nsPer returns the nanoseconds since t0 per operation.
func nsPer(t0 time.Time, n int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
