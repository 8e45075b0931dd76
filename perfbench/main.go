// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per process and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with -trace 1 a span tracer is switched on around the
// calls into each layer and the metrics are the per-layer ones. The
// spans, their self times and the tracing overhead are written to
// .bench_build/trace/. LAYERS.md maps every metric to the layer it
// measures and the end-to-end metric it should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload heat-wafer --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// outDir holds everything a run leaves behind: traces and the last
// untraced result per workload (the tracing-overhead baseline).
const outDir = ".bench_build"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a workload run's outcome. E2E and Layer hold the end-to-end
// and per-layer metrics; a run with tracing off leaves Layer empty.
type result struct {
	Attempted int
	Failed    int
	// Errors lists every failed correctness check; a non-empty list
	// fails the run.
	Errors []string
	E2E    map[string]metric
	Layer  map[string]metric
	// Info is echoed on a line of its own before the result: the seed,
	// sample counts and anything else a reader needs to trust the
	// numbers.
	Info map[string]any
}

func newResult() *result {
	return &result{E2E: map[string]metric{}, Layer: map[string]metric{}, Info: map[string]any{}}
}

func (r *result) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// workload runs the named workload with its workload-seeded inputs for
// at least the given time. tr is nil when tracing is off.
type workload func(name string, seed int64, seconds float64, tr *tracer) (*result, error)

var workloads = map[string]workload{
	"heat-wafer": func(_ string, seed int64, sec float64, tr *tracer) (*result, error) {
		return runHeat(heatWafer, seed, sec, tr)
	},
	"daemon-wafer": func(name string, seed int64, sec float64, tr *tracer) (*result, error) {
		return runDaemon(name, daemonWafer, seed, sec, tr)
	},
	"daemon-host": func(name string, seed int64, sec float64, tr *tracer) (*result, error) {
		return runDaemon(name, daemonHost, seed, sec, tr)
	},
}

func main() {
	name := flag.String("workload", "", "workload: heat-wafer, daemon-wafer or daemon-host")
	seed := flag.Int64("seed", 1, "workload seed; generates every input")
	seconds := flag.Float64("seconds", 20, "minimum measured time per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	os.Exit(run(os.Stdout, *name, *seed, *seconds, *trace))
}

// run runs one workload, prints its result to stdout and returns the
// exit code: 0 when every check passed, 1 when one failed or the run
// could not finish, 2 on bad arguments.
func run(stdout io.Writer, name string, seed int64, seconds float64, trace int) int {
	w, ok := workloads[name]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", name, seconds, trace)
		return 2
	}
	var tr *tracer
	if trace == 1 {
		tr = newTracer()
	}
	res, err := w(name, seed, seconds, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	res.Info["workload"] = name
	res.Info["seed"] = seed
	if err := record(name, seed, res, tr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	metrics := res.E2E
	if tr != nil {
		metrics = res.Layer
		for _, m := range layerMetrics {
			if _, ok := metrics[m.name]; !ok {
				metrics[m.name] = metric{0, m.unit}
			}
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	info, err := json.Marshal(res.Info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: encode info: %v\n", name, err)
		return 1
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.Errors) == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: encode result: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "info %s\n", info)
	fmt.Fprintln(stdout, string(out))
	if len(res.Errors) > 0 {
		return 1
	}
	return 0
}

// record keeps the untraced end-to-end result of every run as the
// baseline for the tracing overhead, and for a traced run computes that
// overhead and writes the spans and per-layer self times.
func record(name string, seed int64, res *result, tr *tracer) error {
	base := filepath.Join(outDir, "results", name+".json")
	if tr == nil {
		if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
			return err
		}
		data, err := json.Marshal(res.E2E)
		if err != nil {
			return err
		}
		return os.WriteFile(base, data, 0o644)
	}
	overhead := map[string]float64{}
	if data, err := os.ReadFile(base); err == nil {
		var untraced map[string]metric
		if json.Unmarshal(data, &untraced) == nil {
			for k, m := range res.E2E {
				if u, ok := untraced[k]; ok && u.Value != 0 {
					overhead[k] = m.Value/u.Value - 1
				}
			}
		}
	}
	head := headline[name]
	frac, have := overhead[head]
	if !have {
		res.Info["trace_overhead"] = "no untraced run of this workload in this checkout yet"
	}
	res.Layer["trace.overhead_frac"] = metric{frac, "ratio"}
	res.Layer["trace.record_s"] = metric{tr.recordTime().Seconds(), "s"}

	dir := filepath.Join(outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self := tr.selfTimes()
	res.Info["self_s"] = self
	doc := map[string]any{
		"workload":             name,
		"seed":                 seed,
		"spans":                tr.spans,
		"self_s":               self,
		"traced_e2e":           res.E2E,
		"overhead_vs_untraced": overhead,
		"layer":                res.Layer,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", name, seed, time.Now().UTC().Format("20060102T150405")))
	return os.WriteFile(path, data, 0o644)
}

// headline is each workload's main end-to-end metric, the one the
// tracing overhead is stated on.
var headline = map[string]string{
	"heat-wafer":   "solve_s",
	"daemon-wafer": "job_p50_s",
	"daemon-host":  "job_p50_s",
}

// layerMetrics lists every per-layer metric with its unit, in
// BENCHMARK.json order. A traced run reports a layer its workload does
// not pass through as 0: that layer did no work.
var layerMetrics = []struct{ name, unit string }{
	{"wse.new_s", "s"},
	{"wse.restore_s", "s"},
	{"stencilc.compile_s", "s"},
	{"stencilc.apply_first_s", "s"},
	{"stencilc.apply_s", "s"},
	{"kernels.build_s", "s"},
	{"kernels.allreduce_s", "s"},
	{"kernels.allreduce_cycles", "cycles"},
	{"kernels.iter_s", "s"},
	{"kernels.other_s", "s"},
	{"kernels.spmv_s", "s"},
	{"kernels.spmv_cycles", "cycles"},
	{"kernels.warm_solve_s", "s"},
	{"kernels.cycles.spmv", "cycles"},
	{"kernels.cycles.dot", "cycles"},
	{"kernels.cycles.allreduce", "cycles"},
	{"kernels.cycles.axpy", "cycles"},
	{"core.solve_s", "s"},
	{"service.submit_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.run_s", "s"},
	{"service.solution_s", "s"},
	{"service.status_s", "s"},
	{"service.server_solve_s", "s"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.spool_bytes_per_job", "bytes"},
	{"service.failed", "count"},
	{"service.retried", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.cpu_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.record_s", "s"},
}
