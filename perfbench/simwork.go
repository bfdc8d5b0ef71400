package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/experiments"
	"treadmill/internal/quantreg"
	"treadmill/internal/runner"
	"treadmill/internal/sim"
)

// The attribution-sim campaign: RunAttribution's memcached factorial at
// the paper's low and high simulated rates, fitted at every attribution
// percentile with a paper-scale (200-resample) bootstrap.
const (
	simLowRate  = 150000.0 // RunAttribution's memcached low rate
	simHighRate = 700000.0 // and high rate
	simConns    = 8        // connections per simulated client, as RunAttribution
	simClients  = 8        // simulated client fleet, as RunAttribution
)

// simTaus are RunAttribution's attribution percentiles.
var simTaus = []float64{0.5, 0.9, 0.95, 0.99}

// simLadder is the fixed rate ladder of the simulated capacity search, on
// the all-low factorial cell; the first rung is the campaign's high rate.
var simLadder = []float64{700000, 800000, 850000, 900000, 950000, 1000000}

// simP99LimitUs is the simulated p99 limit of the capacity search.
const simP99LimitUs = 1000.0

// simRefFingerprint is the campaign fingerprint (every experiment's
// quantiles and every fit estimate) at seed 1 and the benchmark scale.
// A change that alters it changed what the simulator or the fits compute.
const simRefFingerprint = "ea8ec177a3637afc"

func simScale(c *runCtx) experiments.Scale {
	s := experiments.Scale{
		Name: "perfbench", Duration: 0.04, Warmup: 0.01, Replicates: 2,
		Bootstrap: 200, Seed: c.seed, Workers: c.procs,
	}
	if c.tiny {
		s.Duration, s.Warmup, s.Bootstrap = 0.005, 0.002, 20
	}
	return s
}

// simBase mirrors RunAttribution's factorial testbed template.
func simBase(seed uint64) sim.ClusterConfig {
	cfg := sim.DefaultClusterConfig(simClients)
	cfg.Server.RandomPlacement = true
	cfg.Seed = seed
	return cfg
}

// simStudy mirrors the study RunAttribution runs at one rate.
func simStudy(s experiments.Scale, rate float64, workers int) *runner.Study {
	return &runner.Study{
		Base: simBase(s.Seed), Factors: runner.PaperFactors(), TotalRate: rate,
		ConnsPerClient: simConns, Duration: s.Duration, Warmup: s.Warmup,
		Replicates: s.Replicates, Quantiles: simTaus, Seed: s.Seed,
		Workers: workers, CollectAnatomy: true,
	}
}

// cellConfig is the cluster configuration of one factorial cell.
func cellConfig(s experiments.Scale, levels []int, seed uint64) sim.ClusterConfig {
	cfg := simBase(seed)
	cfg.Clients = append([]sim.ClientSpec(nil), cfg.Clients...)
	for i, f := range runner.PaperFactors() {
		f.Apply(&cfg, levels[i])
	}
	return cfg
}

// fitAll fits every attribution percentile of res the way RunAttribution
// does: one goroutine per percentile, each fit seeded from the percentile.
func fitAll(res *runner.Result, s experiments.Scale, parent *spanRef) (map[float64]*quantreg.Result, error) {
	fits := make([]*quantreg.Result, len(simTaus))
	errs := make([]error, len(simTaus))
	var wg sync.WaitGroup
	for i, tau := range simTaus {
		wg.Add(1)
		go func(i int, tau float64) {
			defer wg.Done()
			sp := parent.child(fmt.Sprintf("runner.Result.Fit tau=%g", tau))
			fits[i], errs[i] = res.Fit(tau, s.Bootstrap, s.Seed+uint64(tau*1000))
			sp.end()
		}(i, tau)
	}
	wg.Wait()
	out := make(map[float64]*quantreg.Result, len(simTaus))
	for i, tau := range simTaus {
		if errs[i] != nil {
			return nil, fmt.Errorf("fit tau=%g: %w", tau, errs[i])
		}
		out[tau] = fits[i]
	}
	return out, nil
}

// fingerprintCampaign hashes every experiment's levels and quantiles and
// every fit estimate, bit for bit.
func fingerprintCampaign(results []*runner.Result, fits []map[float64]*quantreg.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, r := range results {
		for _, smp := range r.Samples {
			for _, l := range smp.Levels {
				put(float64(l))
			}
			for _, tau := range simTaus {
				put(smp.Quantiles[tau])
			}
		}
	}
	for _, f := range fits {
		for _, tau := range simTaus {
			if f == nil {
				continue
			}
			for _, co := range f[tau].Coefs {
				put(co.Est)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// levelQuantile is the median over a level's experiments of their
// tau-quantile, in microseconds.
func levelQuantile(r *runner.Result, tau float64) (float64, int64) {
	xs := make([]float64, 0, len(r.Samples))
	for _, smp := range r.Samples {
		xs = append(xs, smp.Quantiles[tau]*1e6)
	}
	return median(xs), int64(len(xs))
}

func runSim(c *runCtx) error {
	ctx := context.Background()
	s := simScale(c)

	// Set-up: building every cell's testbed at both rates, the
	// construction work a campaign pays before it simulates; repeated for
	// a fifth of a second, the median reported.
	var setups []float64
	for t := time.Now(); len(setups) < 7 || time.Since(t) < 200*time.Millisecond; {
		t0 := time.Now()
		for _, rate := range []float64{simLowRate, simHighRate} {
			for _, levels := range runner.Permutations(len(runner.PaperFactors())) {
				cl, err := sim.NewCluster(cellConfig(s, levels, s.Seed))
				if err != nil {
					return fmt.Errorf("sim.NewCluster: %w", err)
				}
				for _, cli := range cl.Clients {
					if err := cli.StartOpenLoop(rate/simClients, simConns); err != nil {
						return err
					}
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c.set("setup_s", median(setups), int64(len(setups)))

	if c.trace {
		return simTraced(c, s)
	}

	// Measured: whole campaigns, repeated until the measuring time is up.
	var campaigns, fitTimes, reqRates []float64
	var first *experiments.Attribution
	var fp string
	start := time.Now()
	for len(campaigns) < 2 || time.Now().Before(c.deadline(start)) {
		t0 := time.Now()
		a, err := experiments.RunAttribution(ctx, s, "memcached")
		if err != nil {
			return fmt.Errorf("RunAttribution: %w", err)
		}
		wall := time.Since(t0).Seconds()
		// The fits again, as RunAttribution runs them, timed alone.
		t1 := time.Now()
		lowFits, err := fitAll(a.Low, s, nil)
		if err != nil {
			return err
		}
		highFits, err := fitAll(a.High, s, nil)
		if err != nil {
			return err
		}
		fit := time.Since(t1).Seconds()
		var reqs uint64
		for _, r := range []*runner.Result{a.Low, a.High} {
			for _, b := range r.Anatomy {
				reqs += b.Requests
			}
		}
		logf("campaign %d: %.3f s, fits %.3f s", len(campaigns)+1, wall, fit)
		campaigns = append(campaigns, wall)
		fitTimes = append(fitTimes, fit)
		reqRates = append(reqRates, float64(reqs)/math.Max(wall-fit, 1e-9))
		c.attempt += int64(len(a.Low.Samples) + len(a.High.Samples))

		got := fingerprintCampaign([]*runner.Result{a.Low, a.High}, []map[float64]*quantreg.Result{a.FitsLow, a.FitsHigh})
		refit := fingerprintCampaign([]*runner.Result{a.Low, a.High}, []map[float64]*quantreg.Result{lowFits, highFits})
		if refit != got {
			c.fail("refitting the campaign changed the estimates (%s vs %s)", refit, got)
		}
		if first == nil {
			first, fp = a, got
			logf("campaign fingerprint %s", fp)
		} else if got != fp {
			c.fail("campaign %d fingerprint %s differs from the first %s", len(campaigns), got, fp)
		}
	}
	peak := peakRSSMB()
	if c.seed == 1 && !c.tiny && fp != simRefFingerprint {
		c.fail("seed-1 campaign fingerprint %s, reference %s", fp, simRefFingerprint)
	}

	capRate, rungs, err := simCapacity(s)
	if err != nil {
		return err
	}
	c.attempt += int64(rungs)

	n := int64(len(campaigns))
	c.set("campaign_s", median(campaigns), n)
	c.set("fit_s", median(fitTimes), n)
	c.set("req_per_s", median(reqRates), n)
	c.set("peak_rss_mb", peak, 0)
	c.set("ok_frac", 1-float64(c.failed)/float64(c.attempt), c.attempt)
	for _, lv := range []struct {
		name string
		r    *runner.Result
	}{{"low", first.Low}, {"high", first.High}} {
		for _, q := range []struct {
			name string
			tau  float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			v, k := levelQuantile(lv.r, q.tau)
			c.set(q.name+"_us."+lv.name, v, k)
		}
	}
	c.set("capacity_rps", capRate, int64(rungs))
	return nil
}

// simCapacity climbs the simulated ladder on the all-low cell and returns
// the rate at which the simulated p99 crosses the limit, interpolated
// between the last passing and the first failing rung.
func simCapacity(s experiments.Scale) (float64, int, error) {
	ladder := make([]rung, 0, len(simLadder))
	for _, rate := range simLadder {
		st := simStudy(s, rate, 1)
		st.Quantiles = []float64{0.99}
		smp, err := st.RunConfig([]int{0, 0, 0, 0}, s.Seed)
		if err != nil {
			return 0, 0, fmt.Errorf("capacity rung %g: %w", rate, err)
		}
		r := rung{rate: rate, p99: smp.Quantiles[0.99] * 1e6}
		logf("sim rung %8.0f rps: p99 %.1f us", rate, r.p99)
		ladder = append(ladder, r)
		if r.p99 > simP99LimitUs {
			break
		}
	}
	return capacityFrom(ladder, simP99LimitUs), len(ladder), nil
}

// rung is one measured step of a capacity ladder.
type rung struct {
	rate float64
	p99  float64 // microseconds
}

// capacityFrom returns the highest rate meeting the p99 limit: the rate
// where log p99 crosses the limit between the last passing rung and the
// first failing one, or the last rung's rate when none fails. A failing
// first rung reports its rate scaled down by its p99 excess.
func capacityFrom(ladder []rung, limit float64) float64 {
	for i, r := range ladder {
		if r.p99 <= limit {
			continue
		}
		if i == 0 {
			return r.rate * limit / r.p99
		}
		p := ladder[i-1]
		f := (math.Log(limit) - math.Log(p.p99)) / (math.Log(r.p99) - math.Log(p.p99))
		return p.rate + f*(r.rate-p.rate)
	}
	return ladder[len(ladder)-1].rate
}

// simTraced is the per-layer run of attribution-sim: the campaign rebuilt
// from its public parts with a span around each call, one cell measured
// alone, and the fits timed one by one.
func simTraced(c *runCtx, s experiments.Scale) error {
	ctx := context.Background()
	root := c.spans.begin(nil, "campaign")
	defer root.end()

	sp := root.child("experiments.RunAttribution")
	cpu0, t0 := cpuSeconds(), time.Now()
	a, err := experiments.RunAttribution(ctx, s, "memcached")
	wall := time.Since(t0).Seconds()
	// Utilization of the campaign's worker pool: the CPU the campaign
	// used over the CPU its workers could have used.
	c.set("runner.pool_util", (cpuSeconds()-cpu0)/(float64(s.Workers)*wall), 0)
	sp.end()
	if err != nil {
		return err
	}
	want := fingerprintCampaign([]*runner.Result{a.Low, a.High}, []map[float64]*quantreg.Result{a.FitsLow, a.FitsHigh})

	var results []*runner.Result
	var fits []map[float64]*quantreg.Result
	var cells []float64
	for _, lv := range []struct {
		name string
		rate float64
	}{{"low", simLowRate}, {"high", simHighRate}} {
		level := root.child("level " + lv.name)
		// The study on one worker: the campaign must not depend on the
		// worker count, so it must reproduce RunAttribution exactly.
		st := simStudy(s, lv.rate, 1)
		run := level.child("runner.Study.Run workers=1")
		res, err := st.Run(ctx)
		run.end()
		if err != nil {
			return err
		}
		results = append(results, res)
		c.attempt += int64(len(res.Samples))

		for _, levels := range runner.Permutations(len(st.Factors)) {
			cell := level.child("cell " + runner.LevelsKey(levels))
			t0 := time.Now()
			_, err := st.RunConfig(levels, s.Seed)
			cells = append(cells, time.Since(t0).Seconds())
			cell.end()
			if err != nil {
				return err
			}
			c.attempt++
		}

		fm, err := timeFits(c, res, s, level)
		if err != nil {
			return err
		}
		fits = append(fits, fm)
		level.end()
	}
	if got := fingerprintCampaign(results, fits); got != want {
		c.fail("one-worker campaign fingerprint %s differs from RunAttribution's %s", got, want)
	}
	c.set("runner.cell_s", median(cells), int64(len(cells)))

	return simCell(c, s, root)
}

// timeFits fits res at every attribution percentile one at a time and
// reports the median fit's wall time and allocations. Traced runs call it
// once per campaign level; the last call's figures stand.
func timeFits(c *runCtx, res *runner.Result, s experiments.Scale, parent *spanRef) (map[float64]*quantreg.Result, error) {
	fm := make(map[float64]*quantreg.Result, len(simTaus))
	var ms, allocs []float64
	for _, tau := range simTaus {
		sp := parent.child(fmt.Sprintf("runner.Result.Fit tau=%g", tau))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		f, err := res.Fit(tau, s.Bootstrap, s.Seed+uint64(tau*1000))
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		sp.end()
		if err != nil {
			return nil, err
		}
		fm[tau] = f
	}
	med := median(ms)
	c.set("quantreg.fit_ms", med, int64(len(ms)))
	c.set("quantreg.ms_per_resample", med/float64(s.Bootstrap), int64(len(ms)))
	c.set("quantreg.allocs_per_fit", median(allocs), int64(len(allocs)))
	return fm, nil
}

// simCell measures one campaign cell alone — the all-low configuration at
// the high rate — and replays its latencies and phase vectors through the
// histogram and the anatomy aggregator.
func simCell(c *runCtx, s experiments.Scale, root *spanRef) error {
	cellSp := root.child("sim cell 0000 high")
	defer cellSp.end()
	sp := cellSp.child("sim.NewCluster")
	cl, err := sim.NewCluster(cellConfig(s, []int{0, 0, 0, 0}, s.Seed))
	sp.end()
	if err != nil {
		return err
	}
	var lat []float64
	var vecs []anatomy.Vec
	for _, cli := range cl.Clients {
		cli.OnComplete = func(req *sim.Request) {
			if req.Created >= s.Warmup {
				lat = append(lat, req.MeasuredLatency())
				vecs = append(vecs, req.Phases)
			}
		}
		if err := cli.StartOpenLoop(simHighRate/simClients, simConns); err != nil {
			return err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = cellSp.child("sim.Cluster.Run")
	t0 := time.Now()
	cl.Run(s.Warmup + s.Duration)
	ns := float64(time.Since(t0).Nanoseconds())
	sp.end()
	runtime.ReadMemStats(&m1)
	var reqs uint64
	for _, cli := range cl.Clients {
		reqs += cli.Done()
	}
	events := float64(cl.Eng.Processed())
	if reqs == 0 || events == 0 {
		return fmt.Errorf("sim cell completed %d requests in %g events", reqs, events)
	}
	// The capture closures append per request; their allocations are the
	// benchmark's, counted here as a known bias of at most ~2 per request.
	c.set("sim.ns_per_event", ns/events, int64(events))
	c.set("sim.events_per_req", events/float64(reqs), int64(reqs))
	c.set("sim.ns_per_req", ns/float64(reqs), int64(reqs))
	c.set("sim.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(reqs), int64(reqs))
	c.attempt++

	agg, err := replayObservers(c, cellSp, lat, vecs, anatomy.SourceSim)
	if err != nil {
		return err
	}
	setPhases(c, agg.Finalize())
	return nil
}
