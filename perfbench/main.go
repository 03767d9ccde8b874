// Command perfbench is the repository's wall-clock benchmark. It drives
// the query service (internal/serve) over loopback HTTP and the paper
// reproduction suite (internal/experiments) in process, checks every
// answer, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root; see run.sh):
//
//	perfbench --workload serve-engine-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with no
// instrumentation. With --trace 1 it replays the workload's ops
// serially, calls each layer's public entry point on the same inputs
// (the per-layer ladder), records one span per call, and prints the
// per-layer metrics, the attribution table and the tracing overhead.
// The benchmark sits outside the program: it only calls exported
// functions and reads exported counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints: the gate's verdict, the op counts,
// and the metrics. Lines are the human-readable text printed before
// the JSON result (tables, digests, gate failures).
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	mismatches []string
	lines      []string
}

func newReport() *report {
	return &report{Correct: true, Metrics: make(map[string]metric)}
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// mismatch records a correctness-gate failure.
func (r *report) mismatch(format string, args ...any) {
	r.Correct = false
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// spans is where the traced run writes its span log.
	spans string
}

// workload is one named traffic mix.
type benchWorkload struct {
	name string
	why  string
	run  func(o options, r *report) error
}

var workloads = []benchWorkload{
	{
		name: "serve-engine-small",
		why:  "Front end (HTTP, JSON decode, SQL/expr compile, encode) is a large share of each session; tables fit the buffer pool; host tenants keep exec and bufpool on the path.",
		run:  runEngineSmall,
	},
	{
		name: "serve-cluster-mixed",
		why:  "Writes beside reads: the only workload running txn, wal and FTL writes, cluster fan-out and merge, and replica routing; it skips the engine executor.",
		run:  runClusterMixed,
	},
	{
		name: "repro-suite",
		why:  "The paper-reproduction path: warm Fig3/Fig5/Fig7/Table3 passes, all execution and no HTTP or SQL; lineitem has more pages than the buffer pool.",
		run:  runReproSuite,
	},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1: traced ladder run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q; choose one of:", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	if o.trace {
		o.spans = ".bench_build/perfbench-spans-" + w.name + ".json"
	}
	return runWorkload(w, o, stdout, stderr)
}

// runWorkload runs one workload, prints its report and returns the
// exit code: 1 when the run fails or the correctness gate trips.
func runWorkload(w benchWorkload, o options, stdout, stderr io.Writer) int {
	r := newReport()
	if err := w.run(o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, l := range r.lines {
		fmt.Fprintln(stdout, l)
	}
	printMetrics(stdout, r)
	for _, m := range r.mismatches {
		fmt.Fprintln(stderr, "perfbench: correctness gate:", m)
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !r.Correct {
		return 1
	}
	return 0
}

// printMetrics lists every metric by name with its unit, sorted.
func printMetrics(w io.Writer, r *report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// liveHeapMB reports the Go heap in use after a forced collection.
// Workloads call it while their loaded system is still reachable, so
// the figure is the system's resident heap, kernel caches included.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timed runs fn and returns its wall duration.
func timed(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}
