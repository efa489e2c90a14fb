// Command benchmark is the repository's performance benchmark: four
// closed-loop, fixed-work workloads measured from outside the engine. It
// times calls into public functions, wall-stamps the trace events the
// engine already emits, takes client-side HTTP timestamps against a child
// caqe-serve, and reads /proc/<pid>; it changes nothing it measures.
//
//	go run ./benchmark -workload batch-anti            # end-to-end metrics
//	go run ./benchmark -workload serve-stream -traced  # per-layer metrics
//	go run ./benchmark -selfcheck                      # A/A spread per metric
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (BENCHMARK.json names the metrics);
// everything above it is the same numbers for people. The exit code is 0
// only when every output check passed. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// processStart is as close to exec as the program can observe.
var processStart = time.Now()

// referenceSeconds is the run length the work counts of the workloads were
// sized for on the 2-core reference machine: at the default -seconds every
// timed phase lasts about 20 s or more. -seconds scales every count
// linearly; BENCHMARK.json asks for less so that the driver's hundred runs
// fit its time cap even when the host is a third slower than usual.
const referenceSeconds = 20

// setupRepeats is how many times a run performs its whole set-up; setup_s
// is the median.
const setupRepeats = 3

// metricDef names one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer metrics,
// which are not gated).
type metricDef struct {
	name, unit string
	better     string
	bound      float64
}

// endToEnd lists the gated metrics; every workload reports all of them from
// an untraced run. BENCHMARK.json repeats this table (a test keeps the two
// equal). The bounds of everything timed are as wide as the driver allows
// because the host is that noisy, not the benchmark: identical work on the
// 2-core reference VM takes ±8 % from one minute to the next (README.md,
// "How steady the numbers are").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"done_p50_ms", "ms", "lower", 0.25},
	{"ttfr_p50_ms", "ms", "lower", 0.25},
	{"results_half_p50_ms", "ms", "lower", 0.25},
	{"satisfaction", "1", "higher", 0.20},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the metrics of single layers; every workload reports all
// of them from a traced run, with 0 for a layer the workload never enters.
var perLayer = []metricDef{
	{name: "core.decisions", unit: "count", better: "lower"},
	{name: "core.deferrals", unit: "count", better: "lower"},
	{name: "core.virtual_s", unit: "s", better: "lower"},
	{name: "core.sched_ms", unit: "ms", better: "lower"},
	{name: "core.op_join_ms", unit: "ms", better: "lower"},
	{name: "core.op_dominance_ms", unit: "ms", better: "lower"},
	{name: "core.admit_ms_p50", unit: "ms", better: "lower"},
	{name: "core.append_ms_p50", unit: "ms", better: "lower"},
	{name: "core.delete_ms_p50", unit: "ms", better: "lower"},
	{name: "skycube.cmps", unit: "count", better: "lower"},
	{name: "skycube.ns_per_cmp", unit: "ns", better: "lower"},
	{name: "skycube.insert_replay_ms", unit: "ms", better: "lower"},
	{name: "preference.dominates_ns", unit: "ns", better: "lower"},
	{name: "join.probes", unit: "count", better: "lower"},
	{name: "join.results", unit: "count", better: "lower"},
	{name: "join.replay_ms", unit: "ms", better: "lower"},
	{name: "join.ns_per_probe", unit: "ns", better: "lower"},
	{name: "partition.build_ms", unit: "ms", better: "lower"},
	{name: "partition.cells", unit: "count", better: "lower"},
	{name: "region.build_ms", unit: "ms", better: "lower"},
	{name: "region.regions", unit: "count", better: "lower"},
	{name: "region.pruned", unit: "count", better: "higher"},
	{name: "region.cellops", unit: "count", better: "lower"},
	{name: "session.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "session.ttfr_ms_p50", unit: "ms", better: "lower"},
	{name: "session.done_ms_p50", unit: "ms", better: "lower"},
	{name: "session.mutate_ms_p50", unit: "ms", better: "lower"},
	{name: "session.coalesced", unit: "count", better: "lower"},
	{name: "serve.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.stream_open_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.first_line_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.drain_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.mutate_ack_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.append_visible_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.delete_visible_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.bytes_per_result", unit: "B", better: "lower"},
	{name: "serve.http_self_ms", unit: "ms", better: "lower"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "serve.ttfr_p95_ms", unit: "ms", better: "lower"},
	{name: "serve.done_p95_ms", unit: "ms", better: "lower"},
	{name: "serve.done_p99_ms", unit: "ms", better: "lower"},
	{name: "cluster.run2_ms", unit: "ms", better: "lower"},
	{name: "cluster.merge_ms", unit: "ms", better: "lower"},
	{name: "cluster.merge_cmps", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// workloadDef is one benchmark workload and why it exists.
type workloadDef struct {
	name, why string
	run       func(cfg config) (*outcome, error)
}

var workloads = []workloadDef{
	{"batch-anti", "comparison-bound: anti-correlated data, three quarters of CPU in the dominance kernel, join work negligible", runBatch},
	{"batch-indep", "result-flow-bound: independent data, few comparisons per join result, so allocation and batch hand-off dominate", runBatch},
	{"serve-stream", "admit-into-a-running-plan path through caqe-serve: session ring, pump, NDJSON encoding; immutable tables", runServe},
	{"serve-mutate", "writes beside reads: appends and deletes under a standing query, the mutable path no other workload enters", runServe},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // sizes the fixed work: counts scale by seconds/referenceSeconds
	traced   bool
	quick    bool   // tiny sizes for tests: each workload ≤ 2 s
	buildDir string // where the caqe-serve binary is built
}

// scale sizes a reference count to the requested run length.
func (c config) scale(n int) int {
	v := int(math.Round(float64(n) * c.seconds / referenceSeconds))
	if v < 1 {
		v = 1
	}
	return v
}

// sample is one measured value with the number of observations behind it.
type sample struct {
	value float64
	n     int
}

// outcome is what one run of one workload produced.
type outcome struct {
	attempted, failed int
	failures          []string          // the first few failed checks, for the reader
	values            map[string]sample // by metric name
	notes             []string          // repeat-exactly counts and other context
}

func newOutcome() *outcome { return &outcome{values: map[string]sample{}} }

func (o *outcome) set(name string, v float64, n int) { o.values[name] = sample{v, n} }

// fail records failed operations; only the first few descriptions are kept.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// printEnv records where the numbers came from.
func printEnv(cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g traced=%v quick=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced, cfg.quick)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s loadavg=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, loadavg())
}

// report prints the run for people and then, as the last line, for the
// driver. It returns false when any operation failed.
func report(cfg config, o *outcome) bool {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	listed := map[string]bool{}
	fmt.Printf("%-30s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		s := o.values[d.name]
		listed[d.name] = true
		fmt.Printf("%-30s %14.4f %-6s %d\n", d.name, s.value, d.unit, s.n)
		out.Metrics[d.name] = jsonMetric{s.value, d.unit}
	}
	// Numbers outside the active list (tails in an untraced run, mutation
	// visibility) are shown but not gated.
	var extra []string
	for name := range o.values {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		s := o.values[name]
		fmt.Printf("%-30s %14.4f %-6s %d  (not gated)\n", name, s.value, "", s.n)
	}
	for _, n := range o.notes {
		fmt.Println("# " + n)
	}
	fmt.Printf("# operations attempted=%d failed=%d\n", o.attempted, o.failed)
	for _, f := range o.failures {
		fmt.Println("# FAILED: " + f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	fmt.Println(string(line))
	return o.failed == 0
}

// selfcheck runs each workload twice on this build and fails if any
// end-to-end metric differs between the two by more than its bound. Like
// the driver's spread check it shows setup_s without holding it to its
// bound: a second of process start-up is the noisiest thing measured here.
func selfcheck(cfg config, names []string) bool {
	ok := true
	for _, name := range names {
		cfg.workload = name
		wl := findWorkload(name)
		var runs [2]*outcome
		for i := range runs {
			o, err := wl.run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return false
			}
			if o.failed > 0 {
				fmt.Printf("%s run %d: %d of %d operations failed: %s\n", name, i+1, o.failed, o.attempted, strings.Join(o.failures, "; "))
				ok = false
			}
			runs[i] = o
		}
		fmt.Printf("%-14s %-22s %12s %12s %8s %6s\n", "workload", "metric", "run 1", "run 2", "spread", "bound")
		for _, d := range endToEnd {
			a, b := runs[0].values[d.name].value, runs[1].values[d.name].value
			spread := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			verdict := ""
			switch {
			case spread <= d.bound:
			case d.name == "setup_s":
				verdict = "  exceeds its bound (not held to it)"
			default:
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %7.2f%% %5.0f%%%s\n", name, d.name, a, b, 100*spread, 100*d.bound, verdict)
		}
	}
	return ok
}

func main() {
	var cfg config
	var trace int
	var traced, self bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: batch-anti, batch-indep, serve-stream, serve-mutate")
	flag.Int64Var(&cfg.seed, "seed", 2014, "seed of the datasets and of the query and mutation sequences")
	flag.Float64Var(&cfg.seconds, "seconds", referenceSeconds, "length the timed phase is sized for on the reference machine (scales the work counts)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: a fifth of the work, per-layer metrics")
	flag.BoolVar(&traced, "traced", false, "same as -trace 1")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny sizes (each workload ≤ 2 s), for tests of the harness")
	flag.BoolVar(&self, "selfcheck", false, "run each workload (or the one named) twice and compare the end-to-end metrics against their bounds")
	flag.StringVar(&cfg.buildDir, "build-dir", ".bench_build", "directory for the caqe-serve binary the serve workloads start")
	flag.Parse()
	cfg.traced = traced || trace != 0
	if flag.NArg() > 0 || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	if self {
		var names []string
		for _, wl := range workloads {
			if cfg.workload == "" || cfg.workload == wl.name {
				names = append(names, wl.name)
			}
		}
		if len(names) == 0 {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
			os.Exit(2)
		}
		cfg.traced = false
		printEnv(cfg)
		if !selfcheck(cfg, names) {
			os.Exit(1)
		}
		return
	}

	wl := findWorkload(cfg.workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have:\n", cfg.workload)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	printEnv(cfg)
	o, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !report(cfg, o) {
		os.Exit(1)
	}
}
