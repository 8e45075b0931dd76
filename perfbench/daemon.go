package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/service"
)

// daemonConfig is a wsesimd workload: an in-process daemon behind real
// loopback HTTP, driven by a closed loop of clients in this process.
// Each client waits for the result of one operation before it starts
// the next, as a script calling the API does.
type daemonConfig struct {
	Backend   string // "wafer" or "local"
	Precision string // local backend only
	NX, NY    int
	NZ, Iters int
	// ReadsPerJob is how many status GETs of its finished jobs a client
	// makes after each job it submits and waits for.
	ReadsPerJob int
	// ReadsAfter is how many solution GETs of finished jobs are made one
	// at a time after the window, on the idle daemon.
	ReadsAfter int
	// MinJobs is the fewest jobs a run completes, so that job_p90_s has
	// at least ten samples beyond it.
	MinJobs int
	// Poll is the status-poll interval while a job runs: at most 2% of
	// the workload's median job.
	Poll time.Duration
	// Setups is how many daemons are started for setup_s, half of them
	// before the measured window (the last of those serves the load) and
	// the rest after it, so that their median spans the run.
	Setups int
	// Verify is how many jobs per client are re-solved in process by
	// core.Solve and compared bit for bit.
	Verify int
}

// daemonWafer runs small wafer jobs: warm-cache checkout, the
// sequential engine, the Listing-1 FIFO SpMV and a 32×32 AllReduce.
// Its clients only run jobs; read_p50_s times solution reads of finished
// jobs made after the window. Status reads of ~0.25 ms made between jobs
// waited for the Go scheduler behind both workers' solves, and the
// medians of ten runs spread 17–38%; on the idle daemon a ~0.05 ms status
// read is mostly the wake-up of idle vCPUs, which spread 29%.
var daemonWafer = daemonConfig{Backend: "wafer", NX: 32, NY: 32, NZ: 8, Iters: 4,
	ReadsAfter: 200, MinJobs: 100, Poll: 2 * time.Millisecond, Setups: 7, Verify: 2}

// daemonHost runs host-solved fp32 jobs, 80% of operations being reads
// of finished jobs: the service layer with no simulator.
var daemonHost = daemonConfig{Backend: "local", Precision: "fp32", NX: 32, NY: 32, NZ: 32, Iters: 20,
	ReadsPerJob: 4, MinJobs: 100, Poll: 500 * time.Microsecond, Setups: 7, Verify: 2}

// conns is both the daemon's worker count and the number of clients:
// the host's CPU count.
const conns = 2

var problems = []string{"poisson", "momentum", "random"}

// maxWindow caps a daemon run's measured window.
const maxWindow = 100 * time.Second

// jobSpec draws a job from the workload's seeded stream.
func (c daemonConfig) jobSpec(rng *rand.Rand) service.JobSpec {
	return service.JobSpec{
		Problem: problems[rng.Intn(len(problems))],
		NX:      c.NX, NY: c.NY, NZ: c.NZ,
		Seed:      1 + rng.Int63n(1<<31),
		Backend:   c.Backend,
		Precision: c.Precision,
		MaxIter:   c.Iters,
	}
}

// daemon is one running wsesimd with its HTTP front end.
type daemon struct {
	svc   *service.Server
	http  *http.Server
	base  string
	spool string
	done  chan struct{}
}

func startDaemon() (*daemon, error) {
	spool, err := os.MkdirTemp("", "perfbench-spool-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{SpoolDir: spool, Workers: conns})
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background())
		os.RemoveAll(spool)
		return nil, err
	}
	svc.Start()
	d := &daemon{svc: svc, http: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(),
		spool: spool, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	return d, nil
}

// stop shuts the daemon down, waits for its server goroutine and its
// workers, and removes its spool.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.http.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: stop HTTP server: %v\n", err)
	}
	<-d.done
	if err := d.svc.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: stop daemon: %v\n", err)
	}
	os.RemoveAll(d.spool)
}

// client is one closed-loop caller. Its latencies and finished jobs are
// its own; the run merges them at the end.
type client struct {
	c    daemonConfig
	http *http.Client
	base string
	rng  *rand.Rand
	tr   *tracer

	jobs, reads     []float64 // job and finished-job status-GET latencies, seconds
	polls           int
	submits, waits  []float64
	runs, solutions []float64
	cycles          []int64     // per-iteration cycles of each job
	phases          core.Phases // the last job's per-iteration account
	finished        []string
	keep            map[int]bool // job numbers whose solutions are verified
	kept            []keptJob
	n, failed       int
	errors          []string
}

type keptJob struct {
	id   string
	spec service.JobSpec
	x    []float64
	hist []float64
}

func (cl *client) failf(format string, args ...any) {
	cl.failed++
	cl.errors = append(cl.errors, fmt.Sprintf(format, args...))
}

// do sends one request and decodes a JSON reply into out.
func (cl *client) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// get is one GET of /v1/jobs/{id}<suffix>: with suffix "" a status
// poll of the client's running job or a read of a finished one, with
// "/solution" a read of a finished job's solution.
func (cl *client) get(name, id, suffix string, parent int) (service.JobView, time.Duration, error) {
	var v service.JobView
	sid := cl.tr.begin(name, parent, id)
	t := time.Now()
	err := cl.do("GET", "/v1/jobs/"+id+suffix, nil, http.StatusOK, &v)
	d := time.Since(t)
	cl.tr.end(sid)
	return v, d, err
}

// job submits one spec and waits for its solution: POST, status polls
// until the job is terminal, GET solution. It returns the solution view.
// parent is the span the job belongs to, 0 for none.
func (cl *client) job(spec service.JobSpec, parent int) (service.JobView, error) {
	body, _ := json.Marshal(spec)
	root := cl.tr.begin("service.job", parent, "")
	defer cl.tr.end(root)
	start := time.Now()
	var sub service.JobView
	sid := cl.tr.begin("service.submit", root, "")
	err := cl.do("POST", "/v1/jobs", body, http.StatusAccepted, &sub)
	submitted := time.Now()
	cl.tr.end(sid)
	if err != nil {
		return sub, err
	}
	cl.tr.setJob(root, sub.ID)
	cl.tr.setJob(sid, sub.ID)
	var running time.Time
	for {
		v, _, err := cl.get("service.poll", sub.ID, "", root)
		cl.polls++
		if err != nil {
			return v, err
		}
		if v.State != service.StateQueued && running.IsZero() {
			running = time.Now()
		}
		if v.State == service.StateDone || v.State == service.StateFailed ||
			v.State == service.StateCanceled || v.State == service.StateExpired {
			break
		}
		time.Sleep(cl.c.Poll)
	}
	terminal := time.Now()
	var sol service.JobView
	gid := cl.tr.begin("service.solution", root, sub.ID)
	err = cl.do("GET", "/v1/jobs/"+sub.ID+"/solution", nil, http.StatusOK, &sol)
	end := time.Now()
	cl.tr.end(gid)
	if err != nil {
		return sol, err
	}
	cl.tr.add("service.queue_wait", root, sub.ID, submitted, running)
	cl.tr.add("service.run", root, sub.ID, running, terminal)
	cl.jobs = append(cl.jobs, end.Sub(start).Seconds())
	cl.submits = append(cl.submits, submitted.Sub(start).Seconds())
	cl.waits = append(cl.waits, running.Sub(submitted).Seconds())
	cl.runs = append(cl.runs, terminal.Sub(running).Seconds())
	cl.solutions = append(cl.solutions, end.Sub(terminal).Seconds())
	return sol, nil
}

// step runs one round of the mix: a job, then reads of finished jobs.
func (cl *client) step() {
	cl.submit()
	cl.read(cl.c.ReadsPerJob, "")
}

// read makes n GETs of /v1/jobs/{id}<suffix> for the client's finished
// jobs, drawn at random, and checks that each reads done: the status
// with suffix "", the solution with "/solution".
func (cl *client) read(n int, suffix string) {
	for i := 0; i < n && len(cl.finished) > 0; i++ {
		id := cl.finished[cl.rng.Intn(len(cl.finished))]
		v, d, err := cl.get("service.status", id, suffix, 0)
		cl.reads = append(cl.reads, d.Seconds())
		switch {
		case err != nil:
			cl.failf("read %s: %v", id, err)
		case v.State != service.StateDone:
			cl.failf("read %s: state %s, want done", id, v.State)
		}
	}
}

// submit runs one job and checks it, keeping its solution when it is
// one of the client's verified samples.
func (cl *client) submit() {
	spec := cl.c.jobSpec(cl.rng)
	num := cl.n
	cl.n++
	v, err := cl.job(spec, 0)
	if err != nil {
		cl.failf("job %d: %v", num, err)
		return
	}
	if !checkJob(cl, v) {
		return
	}
	cl.finished = append(cl.finished, v.ID)
	cl.cycles = append(cl.cycles, v.Result.Telemetry.PerIteration.Total())
	cl.phases = v.Result.Telemetry.PerIteration
	if cl.keep[num] {
		cl.kept = append(cl.kept, keptJob{v.ID, spec, v.Result.X, v.Result.History})
	}
}

// checkJob requires a job to end done with the requested iterations.
func checkJob(cl *client, v service.JobView) bool {
	switch {
	case v.State != service.StateDone:
		cl.failf("job %s ended %s: %s", v.ID, v.State, v.Error)
	case v.Result == nil:
		cl.failf("job %s is done without a result", v.ID)
	case v.Result.Iterations != cl.c.Iters:
		cl.failf("job %s ran %d iterations, want %d", v.ID, v.Result.Iterations, cl.c.Iters)
	case len(v.Result.X) != cl.c.NX*cl.c.NY*cl.c.NZ:
		cl.failf("job %s returned %d solution values", v.ID, len(v.Result.X))
	default:
		return true
	}
	return false
}

// promSample reads one sample from Prometheus text exposition.
func promSample(text, name string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// scrape is the daemon's /metrics at one instant.
type scrape struct {
	hits, misses, sum, count, failed, retried float64
}

func (d *daemon) scrape(hc *http.Client, backend string) (scrape, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return scrape{}, err
	}
	t := string(data)
	lbl := fmt.Sprintf("{backend=%q}", backend)
	return scrape{
		hits:    promSample(t, "wsesimd_machine_cache_hits_total"),
		misses:  promSample(t, "wsesimd_machine_cache_misses_total"),
		sum:     promSample(t, "wsesimd_solve_latency_seconds_sum"+lbl),
		count:   promSample(t, "wsesimd_solve_latency_seconds_count"+lbl),
		failed:  promSample(t, "wsesimd_jobs_failed_total"+lbl),
		retried: promSample(t, "wsesimd_jobs_retried_total"+lbl),
	}, nil
}

// spoolBytes is the size of every file in the spool.
func spoolBytes(dir string) (total int64, records int) {
	filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
		if strings.HasSuffix(path, ".json") {
			records++
		}
		return nil
	})
	return total, records
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

func runDaemon(name string, c daemonConfig, seed int64, seconds float64, tr *tracer) (*result, error) {
	r := newResult()
	hc := newHTTPClient(conns)
	defer hc.CloseIdleConnections()

	// Set-up: daemon start until the first job's solution is in hand,
	// on a cold machine cache.
	setupRNG := rand.New(rand.NewSource(seed))
	var setups []float64
	setup := func() (*daemon, error) {
		root := tr.begin("service.setup", 0, "")
		defer tr.end(root)
		t := time.Now()
		d, err := startDaemon()
		if err != nil {
			return nil, fmt.Errorf("start daemon: %w", err)
		}
		cl := &client{c: c, http: hc, base: d.base, tr: tr}
		v, err := cl.job(c.jobSpec(setupRNG), root)
		setups = append(setups, time.Since(t).Seconds())
		r.Attempted++
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("setup job: %w", err)
		}
		if !checkJob(cl, v) {
			r.Failed++
			r.Errors = append(r.Errors, cl.errors...)
		}
		return d, nil
	}
	var d *daemon
	for i := 0; i < (c.Setups+1)/2; i++ {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = setup(); err != nil {
			return nil, err
		}
	}
	serving := d
	defer func() {
		if serving != nil {
			serving.stop()
		}
	}()

	clients := make([]*client, conns)
	for i := range clients {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i) + 1))
		keep := map[int]bool{}
		for len(keep) < c.Verify {
			keep[rng.Intn(4*c.Verify)] = true
		}
		clients[i] = &client{c: c, http: hc, base: d.base, rng: rng, tr: tr, keep: keep}
	}
	// Warm-up: one job per client at once, so every worker holds a warm
	// machine before the measured window.
	var wg sync.WaitGroup
	warmRNG := rand.New(rand.NewSource(^seed))
	warm := make([]service.JobSpec, conns)
	for i := range warm {
		warm[i] = c.jobSpec(warmRNG)
	}
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &client{c: c, http: hc, base: d.base}
			v, err := w.job(warm[i], 0)
			if err == nil && checkJob(w, v) {
				cl.finished = append(cl.finished, v.ID)
			}
			cl.failed += w.failed
			cl.errors = append(cl.errors, w.errors...)
		}()
	}
	wg.Wait()
	r.Attempted += len(warm)

	s0, err := d.scrape(hc, c.Backend)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	rt0 := sampleRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	// A daemon too slow or too broken to finish MinJobs stops here and
	// fails the run instead of overrunning it.
	giveUp := start.Add(maxWindow)
	var mu sync.Mutex
	jobsDone := 0
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				now := time.Now()
				stop := !now.Before(giveUp) || (!now.Before(deadline) && jobsDone >= c.MinJobs)
				mu.Unlock()
				if stop {
					return
				}
				before := len(cl.jobs)
				cl.step()
				mu.Lock()
				jobsDone += len(cl.jobs) - before
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	rt1 := sampleRuntime()
	s1, err := d.scrape(hc, c.Backend)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	clients[0].read(c.ReadsAfter, "/solution")
	rss := peakRSSMB()
	spooled, records := spoolBytes(d.spool)
	serving = nil
	d.stop()
	for len(setups) < c.Setups {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		d.stop()
	}

	var jobs, reads, submits, waits, runs, solutions []float64
	var cycles []int64
	var kept []keptJob
	polls := 0
	for _, cl := range clients {
		jobs = append(jobs, cl.jobs...)
		reads = append(reads, cl.reads...)
		submits = append(submits, cl.submits...)
		waits = append(waits, cl.waits...)
		runs = append(runs, cl.runs...)
		solutions = append(solutions, cl.solutions...)
		cycles = append(cycles, cl.cycles...)
		kept = append(kept, cl.kept...)
		polls += cl.polls
		r.Attempted += cl.n + len(cl.reads)
		r.Failed += cl.failed
		r.Errors = append(r.Errors, cl.errors...)
	}
	if len(jobs) < c.MinJobs {
		r.fail("%s: %d jobs completed, want at least %d", name, len(jobs), c.MinJobs)
	}
	if got := s1.failed - s0.failed; got != 0 {
		r.fail("%s: daemon reports %v failed jobs", name, got)
	}

	// Correctness: a seeded sample of solutions against an in-process
	// core.Solve of the same spec, bit for bit.
	var coreSolves []float64
	for _, k := range kept {
		id := tr.begin("core.solve", 0, k.id)
		t := time.Now()
		want, err := directSolve(k.spec)
		coreSolves = append(coreSolves, time.Since(t).Seconds())
		tr.end(id)
		r.Attempted++
		if err != nil {
			r.Failed++
			r.fail("%s: core.Solve of job %s: %v", name, k.id, err)
			continue
		}
		if msg := sameBits(k.x, want.X, k.hist, want.History); msg != "" {
			r.Failed++
			r.fail("%s: job %s differs from core.Solve: %s", name, k.id, msg)
		}
	}
	if len(kept) < c.Verify*conns {
		r.fail("%s: verified %d solutions, want %d", name, len(kept), c.Verify*conns)
	}

	// daemon-host simulates nothing; its sim_cycles_per_iter is a
	// placeholder of 1 that no change can move (LAYERS.md).
	cyc := 1.0
	if c.Backend == "wafer" && len(cycles) > 0 {
		cyc = float64(cycles[0])
		for _, x := range cycles {
			if x != cycles[0] {
				r.fail("%s: per-iteration cycles differ across jobs: %d and %d", name, cycles[0], x)
				break
			}
		}
	}
	serverSolve := ratio(s1.sum-s0.sum, s1.count-s0.count)
	r.E2E["setup_s"] = metric{median(setups), "s"}
	r.E2E["solve_s"] = metric{serverSolve, "s"}
	r.E2E["sim_cycles_per_iter"] = metric{cyc, "cycles"}
	r.E2E["peak_rss_mb"] = metric{rss, "MB"}
	r.E2E["job_p50_s"] = metric{median(jobs), "s"}
	r.E2E["job_p90_s"] = metric{quantile(jobs, 0.9), "s"}
	r.E2E["jobs_per_s"] = metric{float64(len(jobs)) / window, "1/s"}
	r.E2E["read_p50_s"] = metric{median(reads), "s"}
	r.Info["setups"] = len(setups)
	r.Info["jobs"] = len(jobs)
	r.Info["reads"] = len(reads)
	r.Info["polls"] = polls
	r.Info["window_s"] = window
	r.Info["verified"] = len(kept)
	r.Info["poll_share_of_p50"] = ratio(c.Poll.Seconds(), median(jobs))

	if tr == nil {
		return r, nil
	}
	r.Layer["service.submit_s"] = metric{median(submits), "s"}
	r.Layer["service.queue_wait_s"] = metric{median(waits), "s"}
	r.Layer["service.run_s"] = metric{median(runs), "s"}
	r.Layer["service.solution_s"] = metric{median(solutions), "s"}
	r.Layer["service.status_s"] = metric{median(reads), "s"}
	r.Layer["service.server_solve_s"] = metric{serverSolve, "s"}
	r.Layer["service.cache_hit_ratio"] = metric{ratio(s1.hits-s0.hits, s1.hits-s0.hits+s1.misses-s0.misses), "ratio"}
	r.Layer["service.spool_bytes_per_job"] = metric{ratio(float64(spooled), float64(records)), "bytes"}
	r.Layer["service.failed"] = metric{s1.failed - s0.failed, "count"}
	r.Layer["service.retried"] = metric{s1.retried - s0.retried, "count"}
	r.Layer["core.solve_s"] = metric{median(coreSolves), "s"}
	perUnit(r, rt0, rt1, len(jobs))
	ph := clients[0].phases
	layerCycles(r, kernels.PhaseCycles{SpMV: ph.SpMV, Dot: ph.Dot, AllReduce: ph.AllReduce, Axpy: ph.Axpy})
	if c.Backend == "wafer" {
		if err := probeWafer(r, c, seed, tr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// directSolve is what the daemon promises to equal: core.Solve of the
// spec's problem with the spec's options.
func directSolve(spec service.JobSpec) (core.Result, error) {
	o, err := spec.Options()
	if err != nil {
		return core.Result{}, err
	}
	p, err := spec.BuildProblem()
	if err != nil {
		return core.Result{}, err
	}
	return core.Solve(p, o)
}

func sameBits(x, want, hist, wantHist []float64) string {
	if len(x) != len(want) || len(hist) != len(wantHist) {
		return fmt.Sprintf("lengths %d/%d vs %d/%d", len(x), len(hist), len(want), len(wantHist))
	}
	for i := range x {
		if x[i] != want[i] {
			return fmt.Sprintf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	for i := range hist {
		if hist[i] != wantHist[i] {
			return fmt.Sprintf("history[%d] = %v, want %v", i, hist[i], wantHist[i])
		}
	}
	return ""
}
