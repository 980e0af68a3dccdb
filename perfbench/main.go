// Command perfbench is the repository's end-to-end benchmark. It builds
// inputs from a seed, drives the program through its public entry
// points (rpm.Train, rpm.TrainEnsemble, PredictBatch, TrainReport, the
// internal/serve HTTP API) and the layer packages' exported functions,
// checks every output, and prints each metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload train_exhaustive|train_sampled|serve_mixed \
//	          --seed N --seconds S --trace 0|1
//	perfbench compare DIR_A DIR_B   # medians per metric, same machine only
//	perfbench reference             # print reference model hashes as JSON
//
// --trace 0 reports the end-to-end metrics with no instrumentation and
// no spans. --trace 1 is a separate run that records a span around every
// call into a layer, prints the per-layer self-time table and the
// per-layer metrics, and states the tracing overhead against an
// untraced pass of the same work. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// benchDir is this benchmark's directory under the repository root;
// buildDir holds everything a run writes.
const (
	benchDir = "perfbench"
	buildDir = ".bench_build"
)

// MetricDef names one reported metric.
type MetricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run, reported by every
// workload (README.md gives each one's meaning per workload). Tail
// latencies are printed with their sample counts but not listed: on a
// shared host they swing further between runs than any bound allows.
var endToEnd = []MetricDef{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"classify_series_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"predict_p50_ms", "ms"},
	{"predict_max_rps", "1/s"},
	{"append_p50_ms", "ms"},
	{"append_max_rps", "1/s"},
}

// perLayer are the metrics of a traced run. A layer the workload never
// calls reports 0.
var perLayer = []MetricDef{
	{"core.param_search_s", "s"},
	{"core.search.evals", "count"},
	{"core.search.cache_hit_ratio", "ratio"},
	{"core.step1_sax_s", "s"},
	{"core.step2_grammar_cluster_s", "s"},
	{"core.step3_select_s", "s"},
	{"core.fit_s", "s"},
	{"core.prune_kept_ratio", "ratio"},
	{"core.clusters_kept_ratio", "ratio"},
	{"features.cfs_expansions", "count"},
	{"parallel.search_splits_busy_ratio", "ratio"},
	{"parallel.transform_busy_ratio", "ratio"},
	{"dist.best_query_ns_per_window", "ns"},
	{"dist.windows", "count"},
	{"sax.discretize_ns_per_window", "ns"},
	{"sequitur.infer_ns_per_token", "ns"},
	{"features.select_ms", "ms"},
	{"svm.train_ms", "ms"},
	{"core.transform_us_per_series", "us"},
	{"svm.predict_ns", "ns"},
	{"serve.predict_handler_self_us", "us"},
	{"serve.batch_wait_us", "us"},
	{"rpm.predict_us", "us"},
	{"serve.append_handler_self_us", "us"},
	{"stream.append_ns_per_sample", "ns"},
	{"net.client_self_us", "us"},
	{"serve.batch_items_per_flush", "count"},
	{"serve.shed", "count"},
	{"serve.flush.expired", "count"},
	{"serve.errors", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// Run is one benchmark invocation's state.
type Run struct {
	Workload string
	Seed     int64
	Budget   time.Duration
	// Tracer is nil in untraced runs.
	Tracer *Tracer
	Out    io.Writer

	metrics   map[string]float64
	attempted int
	failed    int
}

// Set records a metric value.
func (r *Run) Set(name string, v float64) { r.metrics[name] = v }

// Attempt counts ops: datasets trained or requests sent.
func (r *Run) Attempt(ops int) { r.attempted += ops }

// Fail counts one failed output check and says why on stderr.
func (r *Run) Fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// Logf prints a human-readable line to stdout (never the last line).
func (r *Run) Logf(format string, args ...any) { fmt.Fprintf(r.Out, format+"\n", args...) }

// Traced reports whether this is the traced run.
func (r *Run) Traced() bool { return r.Tracer != nil }

var workloads = map[string]func(*Run) error{
	"train_exhaustive": runTrainExhaustive,
	"train_sampled":    runTrainSampled,
	"serve_mixed":      runServeMixed,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			if len(os.Args) != 4 {
				fmt.Fprintln(os.Stderr, "usage: perfbench compare DIR_A DIR_B")
				os.Exit(2)
			}
			if err := compareDirs(os.Stdout, os.Args[2], os.Args[3]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		case "reference":
			if err := printReference(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
	}
	os.Exit(benchMain())
}

func benchMain() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "one of "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q (want one of %v), seconds %d, trace %d\n",
			*workload, workloadNames(), *seconds, *trace)
		return 2
	}
	if _, err := os.Stat(filepath.Join(benchDir, "reference.json")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	r := &Run{
		Workload: *workload,
		Seed:     *seed,
		Budget:   time.Duration(*seconds) * time.Second,
		Out:      os.Stdout,
		metrics:  map[string]float64{},
	}
	if *trace == 1 {
		r.Tracer = NewTracer()
	}
	stamp := NewStamp(".")
	r.Logf("perfbench %s seed=%d seconds=%d trace=%d", r.Workload, r.Seed, *seconds, *trace)
	r.Logf("stamp: %s commit=%s source_sha256=%s", stamp.Machine(), stamp.Commit, stamp.Source)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.Workload, err)
		return 1
	}
	if !r.Traced() {
		mb, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reading the peak RSS: %v\n", err)
			return 1
		}
		r.Set("peak_rss_mb", mb)
	}
	return r.finish(stamp)
}

// finish prints the metric table, saves the stamped result, and prints
// the JSON result line last.
func (r *Run) finish(stamp Stamp) int {
	defs := endToEnd
	if r.Traced() {
		defs = perLayer
		spans := r.Tracer.Spans()
		r.Set("trace.spans", float64(len(spans)))
		r.Logf("per-layer self time (%d spans):", len(spans))
		printLayerTable(r.Out, LayerTable(spans))
		if err := writeFile(fmt.Sprintf("spans-%s-seed%d.json", r.Workload, r.Seed), r.Tracer.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	saved := map[string]float64{}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: internal error: metric %s not measured\n", d.Name)
			return 1
		}
		r.Logf("metric %-34s %14.6g %s", d.Name, v, d.Unit)
		out[d.Name] = value{v, d.Unit}
		saved[d.Name] = v
	}
	r.Logf("ops %d  ops_failed %d", r.attempted, r.failed)
	correct := r.failed == 0 && r.attempted > 0
	res := Result{Workload: r.Workload, Seed: r.Seed, Trace: r.Traced(), Stamp: stamp,
		Correct: correct, Attempt: r.attempted, Failed: r.failed, Metrics: saved}
	name := fmt.Sprintf("results/%s-seed%d-trace%v.json", r.Workload, r.Seed, r.Traced())
	if err := writeFile(name, func(w io.Writer) error { return json.NewEncoder(w).Encode(res) }); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(r.Out, string(line))
	if !correct {
		return 1
	}
	return 0
}

// writeFile writes name under the build directory.
func writeFile(name string, write func(io.Writer) error) error {
	path := filepath.Join(buildDir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's peak resident set size (VmHWM) since it
// started or since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS collects the garbage, returns the freed memory to the
// kernel and resets the peak to the current resident set, so that the
// peak measured afterwards is that of the work that follows.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// setupReps is how many times a run sets up, for a median setup_s.
const setupReps = 5

// timeSetup runs setup setupReps times and returns the median duration;
// the last repetition's state is what the run uses.
func timeSetup(setup func() error) (time.Duration, error) {
	var ds []float64
	for range setupReps {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// nproc is the CPU count the benchmark sizes its worker pools and
// connections by.
func nproc() int { return runtime.NumCPU() }
