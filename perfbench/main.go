// Command perfbench is the simulator's end-to-end benchmark. One
// invocation runs one named workload in its own process: it builds the
// workload's snapshot store from nothing (set-up), runs the workload's
// timed part in whole rounds, checks every output against reference
// models written apart from the simulator, and prints its metrics, the
// operations it attempted and failed, and the check results. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
// peak_rss_mb); with -trace 1 the run records spans at every layer
// boundary, runs the per-layer probe phase, writes the spans as one JSON
// file and prints the per-layer metrics. -steady N runs the workload N
// times back to back in child processes and prints each metric's median
// and quartiles. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	workload  string
	traceSeed uint64 // workload-generation seed the simulator receives
	mixSeed   uint64 // daemon job-mix seed
	seconds   float64
	tr        *tracer // nil unless traced
	root      int64   // the workload span
	work      string  // scratch directory of this run, removed at exit

	// ops counts attempted and failed operations by kind.
	opsMu sync.Mutex
	ops   map[string]*[2]int64

	checkMu  sync.Mutex
	checks   int64
	failures []string

	e2e   map[string]metric
	layer map[string]metric
}

// op records one attempted operation of the given kind and whether it
// failed; it returns err unchanged.
func (b *bench) op(kind string, err error) error {
	b.opsMu.Lock()
	defer b.opsMu.Unlock()
	c := b.ops[kind]
	if c == nil {
		c = new([2]int64)
		b.ops[kind] = c
	}
	c[0]++
	if err != nil {
		c[1]++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", kind, err)
	}
	return err
}

// check records one output check.
func (b *bench) check(ok bool, format string, args ...any) {
	b.checkMu.Lock()
	defer b.checkMu.Unlock()
	b.checks++
	var err error
	if !ok {
		msg := fmt.Sprintf(format, args...)
		b.failures = append(b.failures, msg)
		err = fmt.Errorf("%s", msg)
	}
	b.op("check", err)
}

// equal checks that the simulator's cell got equals the reference value
// want.
func (b *bench) equal(what, got, want string) {
	b.check(got == want, "%s: simulator %q, reference %q", what, got, want)
}

func (b *bench) setE2E(name string, v float64, unit string) {
	b.e2e[name] = metric{v, unit}
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.layer[name] = metric{v, unit}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median returns the middle value (mean of the middle two).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1, median and Q3.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// quantile interpolates the p-quantile by the exclusive method of
// Python's statistics.quantiles, which the steadiness figures are
// compared against; positions outside the data clamp to its ends.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	m := p * float64(n+1) // 1-based position
	j := int(m)
	if j < 1 {
		return s[0]
	}
	if j >= n {
		return s[n-1]
	}
	return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 0, "run seed; the trace seed and the job-mix seed derive from it unless set")
		seconds  = flag.Float64("seconds", 10, "measure whole rounds until this many seconds have passed (at least one round)")
		trace    = flag.Int("trace", 0, "1 = traced run: spans, probe phase and per-layer metrics")
		tseed    = flag.Uint64("trace-seed", 0, "workload-generation seed (0 = seed+1)")
		mseed    = flag.Uint64("mix-seed", 0, "daemon job-mix seed (0 = seed+1)")
		steady   = flag.Int("steady", 0, "run the workload this many times in child processes and print each metric's median and quartiles")
		spanDir  = flag.String("span-dir", filepath.Join(".bench_build", "spans"), "directory for the span file of a traced run")
	)
	flag.Parse()
	wl, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(*steady, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	b := &bench{
		workload:  wl.name,
		traceSeed: *tseed,
		mixSeed:   *mseed,
		seconds:   *seconds,
		ops:       map[string]*[2]int64{},
		e2e:       map[string]metric{},
		layer:     map[string]metric{},
	}
	if b.traceSeed == 0 {
		b.traceSeed = *seed + 1
	}
	if b.mixSeed == 0 {
		b.mixSeed = *seed + 1
	}
	runID := fmt.Sprintf("%s-seed%d-%d", wl.name, *seed, os.Getpid())
	b.work = filepath.Join(".bench_build", "work", runID)
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(b.work)
	if *trace == 1 {
		b.tr = newTracer(runID)
	}
	var endRoot func()
	b.root, endRoot = b.tr.open(0, "workload", wl.name)
	err := wl.run(b)
	endRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(b.work)
		os.Exit(1)
	}
	if b.tr != nil {
		if err := os.MkdirAll(*spanDir, 0o755); err == nil {
			path := filepath.Join(*spanDir, runID+".json")
			if err := b.tr.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			} else {
				fmt.Printf("spans: %s\n", path)
			}
		}
	}
	res := b.report(*trace == 1)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.RemoveAll(b.work)
		os.Exit(1)
	}
}

// report prints the human-readable summary and returns the result object.
func (b *bench) report(traced bool) result {
	res := result{Correct: len(b.failures) == 0, Metrics: b.e2e}
	if traced {
		res.Metrics = b.layer
	}
	kinds := make([]string, 0, len(b.ops))
	for k := range b.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("workload %s: trace seed %d, mix seed %d, GOMAXPROCS %d\n", b.workload, b.traceSeed, b.mixSeed, runtime.GOMAXPROCS(0))
	for _, k := range kinds {
		c := b.ops[k]
		res.Attempted += c[0]
		res.Failed += c[1]
		fmt.Printf("  ops %-12s attempted %6d  failed %d\n", k, c[0], c[1])
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("  checks: %d run, %d failed\n", b.checks, len(b.failures))
	for i, f := range b.failures {
		if i == 20 {
			fmt.Printf("    ... %d more\n", len(b.failures)-i)
			break
		}
		fmt.Printf("    FAIL %s\n", f)
	}
	return res
}
