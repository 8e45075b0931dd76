package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type output struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

// tiny shrinks every workload so that the whole suite runs in seconds.
func tiny(t *testing.T) {
	t.Helper()
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	heat := heatConfig{NX: 24, NY: 20, NZ: 4, Iters: 2}
	dw := daemonWafer
	dw.NX, dw.NY, dw.NZ, dw.Iters, dw.MinJobs, dw.Setups, dw.Verify = 8, 8, 4, 2, 12, 3, 1
	dh := daemonHost
	dh.NX, dh.NY, dh.NZ, dh.Iters, dh.MinJobs, dh.Setups, dh.Verify = 8, 8, 8, 5, 12, 3, 1
	workloads = map[string]workload{
		"heat-wafer": func(_ string, seed int64, sec float64, tr *tracer) (*result, error) {
			return runHeat(heat, seed, sec, tr)
		},
		"daemon-wafer": func(name string, seed int64, sec float64, tr *tracer) (*result, error) {
			return runDaemon(name, dw, seed, sec, tr)
		},
		"daemon-host": func(name string, seed int64, sec float64, tr *tracer) (*result, error) {
			return runDaemon(name, dh, seed, sec, tr)
		},
	}
}

func runOnce(t *testing.T, name string, seed int64, trace int) output {
	t.Helper()
	var buf bytes.Buffer
	code := run(&buf, name, seed, 0.2, trace)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", name, err, buf.String())
	}
	if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s trace=%d: exit %d, result %+v\n%s", name, trace, code, out, buf.String())
	}
	return out
}

// TestWorkloads runs every workload of BENCHMARK.json at a tiny shape,
// untraced twice and traced once, and checks the output contract: the
// correctness gate passes, every named metric is emitted with its unit
// and nothing else is, and the simulated cycle count repeats exactly.
func TestWorkloads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	tiny(t)
	t.Chdir(t.TempDir())
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			start := time.Now()
			first := runOnce(t, w.Name, 7, 0)
			second := runOnce(t, w.Name, 7, 0)
			traced := runOnce(t, w.Name, 7, 1)
			checkMetrics(t, first.Metrics, spec.EndToEnd)
			checkMetrics(t, traced.Metrics, spec.PerLayer)
			a, b := first.Metrics["sim_cycles_per_iter"].Value, second.Metrics["sim_cycles_per_iter"].Value
			if a != b || a <= 0 {
				t.Errorf("sim_cycles_per_iter %v then %v: want one positive value", a, b)
			}
			traces, _ := filepath.Glob(filepath.Join(outDir, "trace", w.Name+"-*.json"))
			if len(traces) != 1 {
				t.Errorf("traced run wrote %d trace files, want 1", len(traces))
			}
			t.Logf("%s: three runs in %v", w.Name, time.Since(start))
		})
	}
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSelfTimes checks the layer self-time arithmetic on a hand-built
// span tree: a child's interval is charged to its own layer, once, even
// where siblings overlap.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "service.job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "service.submit", Start: 0, End: 1},
		{ID: 3, Parent: 1, Name: "kernels.solve", Start: 2, End: 8},
		{ID: 4, Parent: 1, Name: "kernels.solve", Start: 6, End: 9},
		{ID: 5, Parent: 3, Name: "core.solve", Start: 3, End: 5},
	}
	got := tr.selfTimes()
	want := map[string]float64{"service": 2 + 1, "kernels": 4 + 3, "core": 2}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}
