package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hostPrint identifies the machine a result was measured on. Results
// measured under different fingerprints are not comparable.
type hostPrint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
}

func (h hostPrint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q kernel=%s", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU, h.Kernel)
}

func fingerprint() hostPrint {
	h := hostPrint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Kernel:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	return h
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// historyRecord is one line of the result history.
type historyRecord struct {
	Time       string             `json:"time"`
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Tiny       bool               `json:"tiny"`
	Host       hostPrint          `json:"host"`
	Comparable bool               `json:"comparable"`
	Correct    bool               `json:"correct"`
	Metrics    map[string]float64 `json:"metrics"`
	Counts     map[string]int64   `json:"counts,omitempty"`
}

// appendHistory appends this result to history.jsonl in dir. The result
// is flagged not comparable when the previous result of the same
// workload and mode was measured under another host fingerprint.
func appendHistory(dir, workload string, c *runCtx, host hostPrint, out resultOut) error {
	path := filepath.Join(dir, "history.jsonl")
	rec := historyRecord{
		Time: time.Now().UTC().Format(time.RFC3339), Workload: workload, Seed: c.seed,
		Seconds: c.seconds, Trace: c.trace, Tiny: c.tiny, Host: host, Comparable: true,
		Correct: out.Correct, Metrics: make(map[string]float64), Counts: c.counts,
	}
	for k, m := range out.Metrics {
		rec.Metrics[k] = m.Value
	}
	if prev, ok := lastRecord(path, rec); ok && prev.Host != host {
		rec.Comparable = false
		logf("host: NOT COMPARABLE with the previous %s result (%s)", workload, prev.Host)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lastRecord returns the newest history record with the same workload,
// mode and scale as like.
func lastRecord(path string, like historyRecord) (historyRecord, bool) {
	f, err := os.Open(path)
	if err != nil {
		return historyRecord{}, false
	}
	defer f.Close()
	var last historyRecord
	found := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r historyRecord
		if json.Unmarshal(sc.Bytes(), &r) != nil {
			continue
		}
		if r.Workload == like.Workload && r.Trace == like.Trace && r.Tiny == like.Tiny {
			last, found = r, true
		}
	}
	return last, found
}

// median returns the median of xs (0 for none), sorting xs in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
