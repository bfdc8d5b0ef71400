// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed measuring time and prints every metric by
// name, with its unit and sample count, followed by one JSON result line.
//
//	perfbench --workload kv-get-small --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// benchmark spans and no program observers beyond the latency stamps.
// With --trace 1 it reports the per-layer metrics instead, records a span
// around every call it makes into a layer, and writes the spans to the
// output directory. Every workload reports every metric; a per-layer
// metric of a layer the workload does not exercise reads 0.
//
// Correctness checks fail the run: the result line then says
// "correct": false and the process exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workloadDef is one named input set of the benchmark.
type workloadDef struct {
	name string
	// why records the reason the workload was chosen; BENCHMARK.json
	// repeats it and the self-test checks that the two agree.
	why string
	run func(c *runCtx) error
}

var workloads = []workloadDef{
	{"attribution-sim", "the paper's attribution pipeline: memcached 2^4 factorial campaign plus quantreg bootstrap; all host time in sim, runner and quantreg, no sockets", runSim},
	{"kv-get-small", "open-loop GETs of 32-byte values over loopback straight to the server: per-request cost in loadgen, client, protocol and server, no writes, no router", runGetSmall},
	{"kv-mixed-router", "workload.Default (90/10 GET/SET, 1 KiB lognormal values, ~100 MB working set) through a router to two servers: store writes, large values, a proxy hop", runMixedRouter},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of a --trace 0 run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
	{"campaign_s", "s"},
	{"req_per_s", "1/s"},
	{"fit_s", "s"},
	{"p50_us.low", "us"},
	{"p99_us.low", "us"},
	{"p50_us.high", "us"},
	{"p99_us.high", "us"},
	{"capacity_rps", "1/s"},
}

// anatomyPhases are the live anatomy phases the traced run reports.
var anatomyPhases = []string{
	"client_send", "wire_server", "client_recv", "srv_parse", "srv_store",
	"srv_serialize", "srv_write", "srv_gc", "other",
}

// perLayer lists the metrics of a --trace 1 run, in print order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.ns_per_event", "ns"},
		{"sim.events_per_req", "count"},
		{"sim.ns_per_req", "ns"},
		{"sim.allocs_per_req", "count"},
		{"runner.cell_s", "s"},
		{"runner.pool_util", "frac"},
		{"quantreg.fit_ms", "ms"},
		{"quantreg.ms_per_resample", "ms"},
		{"quantreg.allocs_per_fit", "count"},
		{"loadgen.late_p50_us", "us"},
		{"loadgen.late_p99_us", "us"},
		{"loadgen.late_frac", "frac"},
		{"loadgen.send_done_p50_us", "us"},
		{"loadgen.send_done_p99_us", "us"},
		{"client.rtt_floor_us", "us"},
		{"client.ledger_gap", "count"},
		{"workload.next_ns", "ns"},
		{"protocol.write_req_ns", "ns"},
		{"protocol.parse_req_ns", "ns"},
		{"protocol.write_resp_ns", "ns"},
		{"protocol.parse_resp_ns", "ns"},
		{"protocol.allocs_per_rt", "count"},
		{"server.store_get_ns", "ns"},
		{"server.store_set_ns", "ns"},
		{"server.store_allocs_per_op", "count"},
		{"server.hit_frac", "frac"},
		{"router.pick_ns", "ns"},
		{"router.hop_us", "us"},
		{"hist.record_ns", "ns"},
		{"hist.rebins", "count"},
		{"anatomy.record_ns", "ns"},
	}
	for _, p := range anatomyPhases {
		defs = append(defs,
			metricDef{"anatomy." + p + "_us.body", "us"},
			metricDef{"anatomy." + p + "_us.tail", "us"})
	}
	return append(defs, metricDef{"trace.p50_overhead_frac", "frac"})
}()

// runCtx carries one invocation's settings and collects its results.
type runCtx struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool
	procs   int
	spans   *tracer // nil unless --trace 1

	values  map[string]float64
	counts  map[string]int64
	checks  []string // failed correctness checks
	attempt int64
	failed  int64
}

// set records a metric value and, when n > 0, the sample count behind it.
func (c *runCtx) set(name string, v float64, n int64) {
	c.values[name] = v
	if n > 0 {
		c.counts[name] = n
	}
}

// fail records a failed correctness check.
func (c *runCtx) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.checks = append(c.checks, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// logf prints a human-readable progress line to standard output.
func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// deadline returns the instant a measuring loop that began at start ends.
func (c *runCtx) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.seconds * float64(time.Second)))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name (see --list)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 30, "measuring time in seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		outDir  = flag.String("out", "perfbench-out", "directory for span files and the result history")
		tiny    = flag.Bool("tiny", false, "run at self-test scale (small inputs, results not comparable)")
		list    = flag.Bool("list", false, "print the workloads and metric names as JSON and exit")
	)
	flag.Parse()
	if *list {
		return printList()
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0|1")
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	c := &runCtx{
		seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny, procs: procs,
		values: make(map[string]float64), counts: make(map[string]int64),
	}
	if c.trace {
		c.spans = newTracer()
		for _, m := range perLayer {
			c.values[m.name] = 0 // layers the workload does not exercise
		}
	}
	host := fingerprint()
	logf("perfbench workload=%s seed=%d seconds=%g trace=%d tiny=%v", wl.name, c.seed, c.seconds, *trace, c.tiny)
	logf("why: %s", wl.why)
	logf("host: %s", host)

	if err := wl.run(c); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}

	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	out := resultOut{Attempted: c.attempt, Failed: c.failed, Metrics: make(map[string]metricOut, len(defs))}
	for _, m := range defs {
		v, ok := c.values[m.name]
		if !ok {
			c.fail("workload did not report metric %s", m.name)
			continue
		}
		out.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		if n := c.counts[m.name]; n > 0 {
			logf("metric %-28s %14.6g %-5s (n=%d)", m.name, v, m.unit, n)
		} else {
			logf("metric %-28s %14.6g %s", m.name, v, m.unit)
		}
	}
	if c.attempt < 1 {
		c.fail("no operations attempted")
	}
	out.Correct = len(c.checks) == 0

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if c.spans != nil {
		path, err := c.spans.write(*outDir, wl.name, c.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		logf("spans: %d written to %s", c.spans.len(), path)
		for _, line := range c.spans.selfTimeTable() {
			logf("self %s", line)
		}
	}
	if err := appendHistory(*outDir, wl.name, c, host, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: history: %v\n", err)
	}

	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printList prints the workload table and metric names, for the self-test.
func printList() int {
	type wlOut struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type mOut struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var l struct {
		Workloads []wlOut `json:"workloads"`
		EndToEnd  []mOut  `json:"end_to_end"`
		PerLayer  []mOut  `json:"per_layer"`
	}
	for _, w := range workloads {
		l.Workloads = append(l.Workloads, wlOut{w.name, w.why})
	}
	for _, m := range endToEnd {
		l.EndToEnd = append(l.EndToEnd, mOut{m.name, m.unit})
	}
	for _, m := range perLayer {
		l.PerLayer = append(l.PerLayer, mOut{m.name, m.unit})
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
