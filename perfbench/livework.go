package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/client"
	"treadmill/internal/dist"
	"treadmill/internal/loadgen"
	"treadmill/internal/protocol"
	"treadmill/internal/quantreg"
	"treadmill/internal/router"
	"treadmill/internal/rtprobe"
	"treadmill/internal/runner"
	"treadmill/internal/server"
	"treadmill/internal/workload"
)

// A run spends warmShare of its measuring time warming up at the high
// rate, then rounds rounds of a low-rate run, a high-rate run and a
// capacity run: levelShare in all at each rate and capShare in all on
// capacity, so a slow drift of the host lands on every metric alike.
const (
	rounds     = 5
	warmShare  = 0.05
	levelShare = 0.40
	capShare   = 0.15
)

// capDepth is how many requests a capacity run keeps outstanding on each
// connection.
const capDepth = 64

// kvSpec is one live traffic mix.
type kvSpec struct {
	cfg      workload.Config
	backends int  // servers behind the target
	router   bool // the target is a router in front of the backends
	// low and high are the fixed rates.
	low, high float64
}

func getSmallSpec() kvSpec {
	return kvSpec{
		cfg: workload.Config{
			Name: "kv-get-small", GetFraction: 1, Keys: 100000, KeySkew: 0.99,
			ValueSize: workload.SizeDist{Kind: "constant", Value: 32}, KeyPrefix: "tm",
		},
		backends: 1,
		low:      5000, high: 40000,
	}
}

func mixedSpec() kvSpec {
	return kvSpec{
		cfg:      workload.Default(),
		backends: 2, router: true,
		low: 5000, high: 10000,
	}
}

func runGetSmall(c *runCtx) error    { return runKV(c, getSmallSpec()) }
func runMixedRouter(c *runCtx) error { return runKV(c, mixedSpec()) }

// kvEnv is one set-up system under test: servers, optional router, and
// the preloaded key space.
type kvEnv struct {
	spec    kvSpec
	servers []*server.Server
	rt      *router.Router
	probe   *rtprobe.Sampler
	target  string
}

func (e *kvEnv) close() {
	if e.rt != nil {
		e.rt.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
	if e.probe != nil {
		e.probe.Stop()
	}
}

// requests returns the target's and the backends' request counters.
func (e *kvEnv) requests() (target, backends uint64) {
	for _, s := range e.servers {
		backends += s.Requests()
	}
	if e.rt != nil {
		return e.rt.Requests(), backends
	}
	return backends, backends
}

// setupKV starts the servers (with the runtime probe the server-timing
// trailer reads, when traced), the router, and preloads every key.
func setupKV(c *runCtx, spec kvSpec, parent *spanRef) (*kvEnv, error) {
	e := &kvEnv{spec: spec}
	if c.trace {
		e.probe = rtprobe.NewSampler(rtprobe.Config{})
		e.probe.Start()
	}
	var addrs []string
	for i := 0; i < spec.backends; i++ {
		sp := parent.child("server.New+Start")
		cfg := server.DefaultConfig()
		cfg.Probe = e.probe
		s, err := server.New(cfg)
		if err == nil {
			err = s.Start()
		}
		sp.end()
		if err != nil {
			e.close()
			return nil, err
		}
		e.servers = append(e.servers, s)
		addrs = append(addrs, s.Addr())
	}
	e.target = addrs[0]
	if spec.router {
		rt, err := newRouter(c, addrs, parent)
		if err != nil {
			e.close()
			return nil, err
		}
		e.rt, e.target = rt, rt.Addr()
	}
	sp := parent.child("loadgen.Preload")
	err := loadgen.Preload(e.target, spec.cfg, c.seed)
	sp.end()
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func newRouter(c *runCtx, backends []string, parent *spanRef) (*router.Router, error) {
	sp := parent.child("router.New+Start")
	defer sp.end()
	cfg := router.DefaultConfig(backends)
	cfg.ConnsPerBackend = c.procs
	rt, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

// expected knows the bytes every key may hold: its preloaded value, or
// the SET pattern of any length the run wrote to it.
type expected struct {
	gen     *workload.Generator
	preLen  []int
	prefix  string
	hasSets bool
}

func newExpected(spec kvSpec, seed uint64) (*expected, error) {
	g, err := workload.NewGenerator(spec.cfg, dist.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	pre := g.Preload()
	x := &expected{gen: g, preLen: make([]int, len(pre)), prefix: spec.cfg.KeyPrefix + "-",
		hasSets: spec.cfg.GetFraction < 1}
	for i, r := range pre {
		x.preLen[i] = len(r.Value)
	}
	return x, nil
}

func (x *expected) rank(key string) (int, bool) {
	s, ok := strings.CutPrefix(key, x.prefix)
	if !ok {
		return 0, false
	}
	r, err := strconv.Atoi(s)
	return r, err == nil && r >= 0 && r < len(x.preLen)
}

// value returns rank's preloaded value.
func (x *expected) value(rank int) []byte {
	v := make([]byte, x.preLen[rank])
	for j := range v {
		v[j] = 'a' + byte((j+rank)%26)
	}
	return v
}

// preloaded reports whether v is exactly rank's preloaded value.
func (x *expected) preloaded(rank int, v []byte) bool {
	if len(v) != x.preLen[rank] {
		return false
	}
	for j, b := range v {
		if b != 'a'+byte((j+rank)%26) {
			return false
		}
	}
	return true
}

// setValue reports whether v is the SET pattern of its own length.
func setValue(v []byte) bool {
	return len(v) > 0 && bytes.Equal(v, workload.AppendValue(nil, len(v)))
}

// goodValue reports whether a GET hit on key returned bytes the key may
// hold.
func (x *expected) goodValue(key string, v []byte) bool {
	r, ok := x.rank(key)
	if !ok {
		return false
	}
	return x.preloaded(r, v) || (x.hasSets && setValue(v))
}

// goodResult reports whether a completed request got a right answer: a
// SET stored, a GET hit holding bytes its key may hold.
func (x *expected) goodResult(r *client.Result) bool {
	if r.Err != nil || r.Resp == nil {
		return false
	}
	switch r.Resp.Status {
	case "STORED":
		return x.hasSets
	case "VALUE":
		return r.Resp.Hit && x.goodValue(r.Resp.Key, r.Resp.Value)
	}
	return false
}

// phaseResult is one fixed-rate open-loop run, or one connection of a
// capacity run.
type phaseResult struct {
	name    string
	rate    float64
	seed    uint64
	dur     time.Duration
	stats   loadgen.Stats
	lat     []float64 // µs from due, one per stamped completion
	dueNs   []int64
	late    []float64     // µs send − due
	done    []float64     // µs Done − Start
	vecs    []anatomy.Vec // phase vectors, kept only on traced runs
	cbErrs  int64
	wrong   int64
	gap     int64 // completions with no stamped observation
	drain   time.Duration
	wall    time.Duration // NewOpenLoop through the drained Run
	windows int           // windows behind p50 and p99
	p50     float64
	p99     float64
	refused int64
}

func (p *phaseResult) attempted() int64 { return int64(p.stats.Sent) + p.refused }

func (p *phaseResult) failed() int64 {
	unanswered := int64(p.stats.Sent) - int64(p.stats.Completed) - p.cbErrs
	return p.cbErrs + p.refused + p.wrong + unanswered
}

// runPhase drives one open-loop run at rate for dur. Latency is taken
// from each request's stamped due instant. A non-nil agg turns on the
// program's server-timing trailer and receives its anatomy ledger.
func runPhase(c *runCtx, e *kvEnv, x *expected, name string, rate float64, dur time.Duration, seed uint64, agg *anatomy.Aggregator, parent *spanRef) (*phaseResult, error) {
	sp := parent.child(fmt.Sprintf("rate %s %.0f", name, rate))
	defer sp.end()
	p := &phaseResult{name: name, rate: rate, seed: seed, dur: dur}
	est := int(rate*dur.Seconds()*1.1) + 64
	p.lat = make([]float64, 0, est)
	p.dueNs = make([]int64, 0, est)
	p.late = make([]float64, 0, est)
	p.done = make([]float64, 0, est)
	var mu sync.Mutex
	var startNs int64
	opts := loadgen.Options{
		Rate: rate, Conns: c.procs, Workload: e.spec.cfg, Seed: seed,
		// Deep enough that a stall of the host queues requests instead
		// of refusing them.
		MaxInflight: 1 << 16,
		OnResult: func(r *client.Result) {
			good := x.goodResult(r)
			mu.Lock()
			switch {
			case r.Err != nil:
				p.cbErrs++
			case !good:
				p.wrong++
			}
			p.done = append(p.done, float64(r.Done.Sub(r.Start).Nanoseconds())/1e3)
			mu.Unlock()
		},
		OnVec: func(op string, st anatomy.ClientStamps, total float64, v anatomy.Vec) {
			mu.Lock()
			p.lat = append(p.lat, float64(st.CompleteNs-st.ArrivalNs)/1e3)
			p.dueNs = append(p.dueNs, st.ArrivalNs-startNs)
			p.late = append(p.late, float64(st.SendNs-st.ArrivalNs)/1e3)
			if agg != nil {
				p.vecs = append(p.vecs, v)
			}
			mu.Unlock()
		},
	}
	if agg != nil {
		opts.ServerTiming = true
		opts.Anatomy = agg
	}
	tgt0, be0 := e.requests()
	t0 := time.Now()
	nsp := sp.child("loadgen.NewOpenLoop")
	ol, err := loadgen.NewOpenLoop(e.target, opts)
	nsp.end()
	if err != nil {
		return nil, err
	}
	defer ol.Close()
	rsp := sp.child("loadgen.OpenLoop.Run")
	mu.Lock()
	startNs = time.Now().UnixNano()
	mu.Unlock()
	st, err := ol.Run(context.Background(), dur)
	rsp.end()
	if err != nil {
		return nil, err
	}
	p.stats = st
	p.wall = time.Since(t0)
	p.drain = st.Elapsed - dur
	// Observers run after the completion callback, so a few may still be
	// in flight when Run returns; wait a bounded time, then report what
	// never arrived as the ledger gap.
	wsp := sp.child("await observers")
	for wait := time.Now(); time.Since(wait) < 100*time.Millisecond; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := int64(len(p.lat))
		mu.Unlock()
		if n >= int64(st.Completed) {
			break
		}
	}
	wsp.end()
	mu.Lock()
	defer mu.Unlock()
	p.gap = int64(st.Completed) - int64(len(p.lat))
	// loadgen counts a refused send as an error without a callback.
	p.refused = int64(st.Errors) - p.cbErrs
	tgt1, be1 := e.requests()
	handshakes := uint64(0)
	if agg != nil {
		handshakes = uint64(c.procs)
	}
	if st.Completed+uint64(p.cbErrs) != st.Sent {
		c.fail("%s: completions %d + failures %d != sent %d", name, st.Completed, p.cbErrs, st.Sent)
	}
	if tgt1-tgt0 != st.Sent+handshakes {
		c.fail("%s: target counted %d requests, sent %d (+%d handshakes)", name, tgt1-tgt0, st.Sent, handshakes)
	}
	if e.rt != nil && be1-be0 != st.Sent {
		c.fail("%s: backends counted %d requests behind the router, sent %d", name, be1-be0, st.Sent)
	}
	p.summarize()
	logf("rate %-6s %7.0f rps: sent %d late %d drain %v p50 %.0f us p99 %.0f us (n=%d, %d windows) gap %d failed %d",
		name, rate, st.Sent, st.LateSends, p.drain.Round(time.Millisecond), p.p50, p.p99, len(p.lat), p.windows, p.gap, p.failed())
	return p, nil
}

// summarize sets the phase's p50 and p99: the median, over quarter-second
// windows of at least 1000 completions, of each window's quantile.
// Interference from other tenants of the host comes in bursts; the
// median window leaves the bursts out, where the quantile of all
// completions would move with how many there were.
func (p *phaseResult) summarize() {
	var p50s, p99s []float64
	for _, w := range windows(p, max(1, min(int(p.dur/(250*time.Millisecond)), len(p.lat)/1000))) {
		if len(w) > 0 {
			p50s = append(p50s, quantile(w, 0.5))
			p99s = append(p99s, quantile(w, 0.99))
		}
	}
	p.p50, p.p99 = median(p50s), median(p99s)
	p.windows = len(p99s)
}

// merge pools the runs of one level into one phase whose due instants
// follow each other run after run.
func merge(name string, parts []*phaseResult) *phaseResult {
	m := &phaseResult{name: name, rate: parts[0].rate, seed: parts[0].seed}
	for _, p := range parts {
		for _, d := range p.dueNs {
			m.dueNs = append(m.dueNs, d+m.dur.Nanoseconds())
		}
		m.dur += p.dur
		m.lat = append(m.lat, p.lat...)
		m.late = append(m.late, p.late...)
		m.done = append(m.done, p.done...)
		m.vecs = append(m.vecs, p.vecs...)
		m.stats.Sent += p.stats.Sent
		m.stats.Completed += p.stats.Completed
		m.stats.Errors += p.stats.Errors
		m.stats.LateSends += p.stats.LateSends
		m.drain = max(m.drain, p.drain)
		m.cbErrs += p.cbErrs
		m.wrong += p.wrong
		m.gap += p.gap
		m.refused += p.refused
	}
	m.summarize()
	return m
}

// floors measures the unloaded round trip: the p50 of one-at-a-time
// client.Conn.Get calls straight to the first server, and through a
// router minus that.
func floors(c *runCtx, e *kvEnv, x *expected, parent *spanRef) (rttUs, hopUs float64, err error) {
	sp := parent.child("floors")
	defer sp.end()
	rt := e.rt
	if rt == nil {
		// A router in front of the one server, only for the hop floor.
		if rt, err = newRouter(c, []string{e.servers[0].Addr()}, sp); err != nil {
			return 0, 0, err
		}
		defer rt.Close()
	}
	// Only keys the first server owns, so both paths read the same store.
	var keys []string
	for _, k := range sampleKeys(x, c.seed+11, 4000) {
		if rt.PickBackend(k) == 0 && len(keys) < 2000 {
			keys = append(keys, k)
		}
	}
	direct, err := syncGets(c, e.servers[0].Addr(), x, keys, sp.child("client.Conn.Get direct"))
	if err != nil {
		return 0, 0, err
	}
	via, err := syncGets(c, rt.Addr(), x, keys, sp.child("client.Conn.Get via router"))
	if err != nil {
		return 0, 0, err
	}
	return direct, via - direct, nil
}

// sampleKeys draws n distinct-enough key names uniformly from the space.
func sampleKeys(x *expected, seed uint64, n int) []string {
	rng := dist.NewRNG(seed)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = x.gen.Key(rng.Intn(len(x.preLen)))
	}
	return keys
}

// syncGets issues one GET at a time on a fresh connection and returns the
// p50 round trip in microseconds; every reply is checked.
func syncGets(c *runCtx, addr string, x *expected, keys []string, sp *spanRef) (float64, error) {
	defer sp.end()
	conn, err := client.Dial(addr, client.DefaultConnConfig())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	rtts := make([]float64, 0, len(keys))
	bad := 0
	for _, k := range keys {
		t0 := time.Now()
		resp, err := conn.Get(k)
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		c.attempt++
		if err != nil {
			c.failed++
			return 0, err
		}
		if !resp.Hit || !x.goodValue(k, resp.Value) || resp.Key != k {
			c.failed++
			bad++
		}
	}
	if bad > 0 {
		c.fail("%d of %d unloaded GETs to %s returned wrong bytes", bad, len(keys), addr)
	}
	return median(rtts), nil
}

// readBack reads sampled keys after the run and checks each holds bytes
// it may hold: its preloaded value if the run never wrote it, else the
// value of one of the writes the run sent it.
func readBack(c *runCtx, e *kvEnv, x *expected, phases []*phaseResult, parent *spanRef) error {
	sp := parent.child("read-back")
	defer sp.end()
	written := make(map[string]map[int]bool)
	var order []string // written keys, first write first
	if x.hasSets {
		// Replay each phase's request stream as the open loop drew it.
		for _, p := range phases {
			g, err := workload.NewGenerator(e.spec.cfg, dist.NewRNG(p.seed).Fork())
			if err != nil {
				return err
			}
			for i := int64(0); i < p.attempted(); i++ {
				if r := g.Next(); r.Op == protocol.OpSet {
					if written[r.Key] == nil {
						written[r.Key] = make(map[int]bool)
						order = append(order, r.Key)
					}
					written[r.Key][len(r.Value)] = true
				}
			}
		}
	}
	keys := sampleKeys(x, c.seed+23, 1000)
	// Up to 500 more, spread over the written keys, so the check covers
	// writes.
	for i, step := 0, max(1, len(order)/500); i < len(order) && len(keys) < 1500; i += step {
		keys = append(keys, order[i])
	}
	conn, err := client.Dial(e.target, client.DefaultConnConfig())
	if err != nil {
		return err
	}
	defer conn.Close()
	bad := 0
	for _, k := range keys {
		resp, err := conn.Get(k)
		c.attempt++
		if err != nil {
			c.failed++
			return err
		}
		r, _ := x.rank(k)
		lens := written[k]
		ok := resp.Hit && resp.Key == k
		if ok && lens == nil {
			ok = x.preloaded(r, resp.Value)
		} else if ok {
			ok = lens[len(resp.Value)] && setValue(resp.Value)
		}
		if !ok {
			bad++
			c.failed++
		}
	}
	logf("read-back: %d keys (%d written during the run), %d wrong", len(keys), len(written), bad)
	if bad > 0 {
		c.fail("read-back: %d of %d keys hold bytes the run never stored", bad, len(keys))
	}
	return nil
}

// phaseSeed derives the open-loop seed of a run from the benchmark seed,
// the rate and the round, so each run sees its own request stream and the
// traced rerun of a rate sees the stream of its first round.
func phaseSeed(seed uint64, rate float64, round int) uint64 {
	return seed*1000003 + uint64(rate)*31 + uint64(round)
}

// windows splits a phase's latencies (µs) into k windows by due instant.
func windows(p *phaseResult, k int) [][]float64 {
	wins := make([][]float64, k)
	w := p.dur.Nanoseconds()/int64(k) + 1
	for i, d := range p.dueNs {
		if j := int(d / w); j >= 0 && j < k {
			wins[j] = append(wins[j], p.lat[i])
		}
	}
	return wins
}

// windowQuantiles returns one runner.Sample per non-empty window of the
// phase, with its latency quantiles (seconds) at every attribution
// percentile.
func windowQuantiles(p *phaseResult, k int, level int) []runner.Sample {
	var out []runner.Sample
	for _, xs := range windows(p, k) {
		if len(xs) == 0 {
			continue
		}
		smp := runner.Sample{Levels: []int{level}, Quantiles: make(map[float64]float64)}
		for _, tau := range simTaus {
			smp.Quantiles[tau] = quantile(xs, tau) / 1e6
		}
		out = append(out, smp)
	}
	return out
}

// liveResult is the live campaign as an attribution input: one factor,
// the load level, with ten replicate windows per level.
func liveResult(low, high *phaseResult) (*runner.Result, error) {
	res := &runner.Result{Factors: []string{"load"}, Quantiles: simTaus}
	res.Samples = append(windowQuantiles(low, 10, 0), windowQuantiles(high, 10, 1)...)
	if len(res.Samples) < 4 {
		return nil, fmt.Errorf("live fit: only %d windows", len(res.Samples))
	}
	return res, nil
}

// liveFits is the live campaign's attribution: quantile regression of the
// window quantiles on the load level at every percentile, with the
// bootstrap, refitted on a freshly collected heap for a tenth of the
// measuring time, so that the median spans seconds of the host's speed.
// Every fit must agree. It returns the median wall time of one full set of
// fits.
func liveFits(c *runCtx, low, high *phaseResult, root *spanRef) (float64, int, error) {
	res, err := liveResult(low, high)
	if err != nil {
		return 0, 0, err
	}
	fs := simScale(c)
	if c.trace {
		sp := root.child("live fit")
		_, err := timeFits(c, res, fs, sp)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
	}
	runtime.GC()
	var fitTimes []float64
	var fitPrint string
	fitStart, budget := time.Now(), time.Duration(c.seconds/10*float64(time.Second))
	for len(fitTimes) < 3 || (time.Since(fitStart) < budget && len(fitTimes) < 500) {
		t := time.Now()
		fits, err := fitAll(res, fs, nil)
		if err != nil {
			return 0, 0, err
		}
		fitTimes = append(fitTimes, time.Since(t).Seconds())
		got := fingerprintCampaign(nil, []map[float64]*quantreg.Result{fits})
		if fitPrint == "" {
			fitPrint = got
			iters := 0
			for _, f := range fits {
				iters += f.Iterations
			}
			logf("live fit: %d IRLS iterations in the point fits of %d percentiles", iters, len(fits))
		} else if got != fitPrint {
			c.fail("live fit %d estimates differ from the first fit's", len(fitTimes))
		}
	}
	return median(fitTimes), len(fitTimes), nil
}

func runKV(c *runCtx, spec kvSpec) error {
	var root *spanRef
	if c.trace {
		root = c.spans.begin(nil, "run")
		defer root.end()
	}
	x, err := newExpected(spec, c.seed)
	if err != nil {
		return err
	}
	scale := 1.0
	if c.tiny {
		spec.cfg.Keys = 2000
		if x, err = newExpected(spec, c.seed); err != nil {
			return err
		}
		scale = 0.2
	}
	runtime.GC()
	debug.FreeOSMemory()

	// Set-up, several times; the median is reported and the last one kept.
	nSetups := 3
	if c.trace {
		nSetups = 1
	}
	var setups []float64
	var e *kvEnv
	for i := 0; i < nSetups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		sp := root.child("setup")
		t0 := time.Now()
		e, err = setupKV(c, spec, sp)
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	defer e.close()
	c.set("setup_s", median(setups), int64(len(setups)))

	rtt, hop, err := floors(c, e, x, root)
	if err != nil {
		return fmt.Errorf("floors: %w", err)
	}
	logf("floors: client.rtt_floor_us %.1f router.hop_us %.1f", rtt, hop)
	c.set("client.rtt_floor_us", rtt, 0)
	c.set("router.hop_us", hop, 0)

	sec := func(f float64) time.Duration {
		return time.Duration(f * scale * c.seconds * float64(time.Second))
	}
	var phases []*phaseResult
	run := func(name string, rate float64, round int, dur time.Duration, agg *anatomy.Aggregator) (*phaseResult, error) {
		p, err := runPhase(c, e, x, name, rate, dur, phaseSeed(c.seed, rate, round), agg, root)
		if err != nil {
			return nil, fmt.Errorf("rate %s %.0f: %w", name, rate, err)
		}
		phases = append(phases, p)
		c.attempt += p.attempted()
		c.failed += p.failed()
		return p, nil
	}

	// A warm-up run at the high rate fills caches and grows the heap; its
	// operations are checked but its latencies are not reported.
	if _, err := run("warmup", spec.high, rounds, sec(warmShare), nil); err != nil {
		return err
	}
	var lows, highs []*phaseResult
	var served int64
	for r := 0; r < rounds; r++ {
		p, err := run("low", spec.low, r, sec(levelShare/rounds), nil)
		if err != nil {
			return err
		}
		lows = append(lows, p)
		if p, err = run("high", spec.high, r, sec(levelShare/rounds), nil); err != nil {
			return err
		}
		highs = append(highs, p)
		if c.trace {
			continue
		}
		parts, n, err := capacityRun(c, e, x, sec(capShare/rounds), r, root)
		if err != nil {
			return fmt.Errorf("capacity: %w", err)
		}
		phases = append(phases, parts...)
		served += n
	}
	var campaign float64
	for _, p := range append(lows, highs...) {
		campaign += p.wall.Seconds()
	}
	low, high := merge("low", lows), merge("high", highs)
	for _, l := range []*phaseResult{low, high} {
		logf("level %-4s %7.0f rps: p50 %.0f us p99 %.0f us (n=%d, %d windows)", l.name, l.rate, l.p50, l.p99, len(l.lat), l.windows)
	}
	fitMed, nFits, err := liveFits(c, low, high, root)
	if err != nil {
		return err
	}

	peak := peakRSSMB()
	if c.trace {
		if err := kvTraced(c, e, x, high, run, root); err != nil {
			return err
		}
	} else {
		capRate := float64(served) / (rounds * sec(capShare/rounds)).Seconds()
		logf("capacity: %.0f rps, %d outstanding on each of %d connections", capRate, capDepth, c.procs)
		c.set("capacity_rps", capRate, served)
	}

	if err := readBack(c, e, x, phases, root); err != nil {
		return fmt.Errorf("read-back: %w", err)
	}

	var gap int64
	for _, p := range phases {
		gap += p.gap
	}
	c.set("client.ledger_gap", float64(gap), 0)
	logf("client.ledger_gap %d completions without a stamped observation", gap)

	done := float64(low.stats.Completed + high.stats.Completed)
	c.set("campaign_s", campaign, int64(2*rounds))
	c.set("req_per_s", done/campaign, int64(done))
	c.set("fit_s", fitMed, int64(nFits))
	c.set("peak_rss_mb", peak, 0)
	c.set("ok_frac", 1-float64(c.failed)/float64(c.attempt), c.attempt)
	c.set("p50_us.low", low.p50, int64(len(low.lat)))
	c.set("p99_us.low", low.p99, int64(len(low.lat)))
	c.set("p50_us.high", high.p50, int64(len(high.lat)))
	c.set("p99_us.high", high.p99, int64(len(high.lat)))
	return nil
}

// capacityRun drives the target as fast as it answers for dur: on each of
// procs connections a client.Conn keeps capDepth requests of the
// workload outstanding. It returns one phaseResult per connection, whose
// seed and attempted count let the read-back replay its writes, and the
// number of requests answered within dur. Each connection's stream has
// its own seed, derived from the round and the connection. A closed loop's throughput
// moves one for one with the CPU the host gives the process; an open
// loop offered more than it can serve keeps spending a fixed share on
// sending, so what it completes moves about twice as much.
func capacityRun(c *runCtx, e *kvEnv, x *expected, dur time.Duration, round int, parent *spanRef) ([]*phaseResult, int64, error) {
	sp := parent.child("capacity")
	defer sp.end()
	tgt0, be0 := e.requests()
	parts := make([]*phaseResult, c.procs)
	conns := make([]*client.Conn, c.procs)
	gens := make([]*workload.Generator, c.procs)
	for i := range parts {
		seed := phaseSeed(c.seed, 0, round*c.procs+i)
		parts[i] = &phaseResult{name: "capacity", seed: seed, dur: dur}
		g, err := workload.NewGenerator(e.spec.cfg, dist.NewRNG(parts[i].seed).Fork())
		if err != nil {
			return nil, 0, err
		}
		conn, err := client.Dial(e.target, client.DefaultConnConfig())
		if err != nil {
			return nil, 0, err
		}
		defer conn.Close()
		conns[i], gens[i] = conn, g
	}
	var served atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for i := range parts {
		wg.Add(1)
		go func(p *phaseResult, conn *client.Conn, g *workload.Generator) {
			defer wg.Done()
			// The callbacks run on the connection's reader; mu guards
			// what they count. Sent and refused are this goroutine's.
			var mu sync.Mutex
			slots := make(chan struct{}, capDepth)
			for time.Now().Before(deadline) {
				slots <- struct{}{}
				p.stats.Sent++
				err := conn.Do(g.Next(), func(r *client.Result) {
					good := x.goodResult(r)
					mu.Lock()
					switch {
					case r.Err != nil:
						p.cbErrs++
					case !good:
						p.wrong++
					}
					if r.Err == nil {
						p.stats.Completed++
						if r.Done.Before(deadline) {
							served.Add(1)
						}
					}
					mu.Unlock()
					<-slots
				})
				if err != nil {
					// Do failed without a callback and the connection
					// is torn down.
					p.stats.Sent--
					p.refused++
					<-slots
					break
				}
			}
			// Wait for the outstanding requests.
			for i := 0; i < capDepth; i++ {
				slots <- struct{}{}
			}
		}(parts[i], conns[i], gens[i])
	}
	wg.Wait()
	var sent uint64
	for _, p := range parts {
		sent += p.stats.Sent
		c.attempt += p.attempted()
		c.failed += p.failed()
	}
	tgt1, be1 := e.requests()
	if tgt1-tgt0 != sent {
		c.fail("capacity: target counted %d requests, sent %d", tgt1-tgt0, sent)
	}
	if e.rt != nil && be1-be0 != sent {
		c.fail("capacity: backends counted %d requests behind the router, sent %d", be1-be0, sent)
	}
	logf("capacity run: sent %d, answered %d within %v", sent, served.Load(), dur)
	return parts, served.Load(), nil
}
