package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// heatConfig is the heat-wafer workload: the 3-D heat operator's
// 7-point BiCGStab on a fabric the size of the mesh, under the
// fast-forward engine, built and solved through the entry points
// TestPaperScaleBiCGStab uses (wse.New, kernels.NewBiCGStabStarWSE,
// Solve). One machine is built and then solves a stream of seeded
// right-hand sides, as the implicit heat stepper does, until the window
// has passed and minSolves solves are done.
//
// Its times are the process's CPU time over each call: the engine runs
// on one thread, so on a dedicated host that is the wall time, while on
// a shared VM it leaves out the time the hypervisor takes away. The
// job_* metrics are wall time, what a caller waits for.
type heatConfig struct {
	NX, NY, NZ int
	Iters      int
	// CyclesPerIter pins the per-iteration cycle account; 0 leaves it
	// unpinned.
	CyclesPerIter int64
}

// heatWafer is an 80×60 fabric at Z=4, two iterations per solve, as
// TestPaperScaleBiCGStab runs. At the paper's 602×595 one solve takes
// 35–60 s of CPU time and holds 3.6 GB, so a run held one solve and the
// quartile spread of ten runs reached 28%; at 80×60 a 20-second window
// holds ~110 solves of ~0.18 s, enough for a p90 with ten samples
// beyond it, and their median follows only the host's own drift. The
// cycle account is 628 = 2×17 SpMV + 4×2 dot + 4×145 AllReduce + 6×1
// AXPY. The AllReduce's share of host time shrinks with the fabric (its
// cycles grow with the fabric's width and height, each cycle's cost
// with its area): at 80×60 it is about a fifth of a solve, at 602×595
// about 80%.
var heatWafer = heatConfig{NX: 80, NY: 60, NZ: 4, Iters: 2, CyclesPerIter: 628}

// minSolves is the fewest timed solves a run makes, so that job_p90_s
// has samples beyond it.
const minSolves = 20

// A run builds the machine setupBuilds times: the first builds are
// closed again, the last one before the window solves, and the rest
// come after the window, so that the median set-up spans the run. After
// each build, and after the window, it reads the wafer's Fingerprint
// readsPerBuild times; read_p50_s is their median.
const (
	setupBuilds   = 5
	buildsBefore  = 3
	readsPerBuild = 5
)

// maxSolveWindow caps a heat-wafer run's measured window, so that a
// host too slow to finish minSolves fails the run instead of overrunning
// it.
const maxSolveWindow = 100 * time.Second

// residualSlack is how far the host's residual of the returned solution
// may sit from the residual the solve reports. Rounding x to fp16 puts
// a floor near 5e-4 under the host's residual; on fabrics from 24×20 to
// 120×100 over 1 to 3 iterations the two differed by at most 5e-4, and
// two iterations leave a residual near 2e-3.
const residualSlack = 2e-3

// heatRHS draws a right-hand side in the value range of
// TestPaperScaleBiCGStab's.
func heatRHS(rng *rand.Rand, n int) []fp16.Float16 {
	b := make([]fp16.Float16, n)
	for i := range b {
		b[i] = fp16.FromFloat64(float64(rng.Intn(23)-11) / 28)
	}
	return b
}

// heatSolve is one solve's inputs, outputs and times.
type heatSolve struct {
	b, x      []fp16.Float16
	st        kernels.WSEStats
	cpu, wall float64
	// iter is the CPU time between the first and the second Progress
	// callback: one whole iteration.
	iter float64
}

func runHeat(cfg heatConfig, seed int64, seconds float64, tr *tracer) (*result, error) {
	r := newResult()
	mesh := stencil.Mesh{NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ}
	norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
	op := stencil.NewOpStarHalf(norm)
	rng := rand.New(rand.NewSource(seed))

	var setups, news, builds, reads []float64
	build := func() (*wse.Machine, *kernels.BiCGStabStarWSE, error) {
		// Free the previous build first, so that peak RSS is one
		// machine's, not two.
		runtime.GC()
		root := tr.begin("heat.setup", 0, "")
		defer tr.end(root)
		t0 := cpuTime()
		id := tr.begin("wse.new", root, "")
		m := wse.New(wse.Config{FabricW: cfg.NX, FabricH: cfg.NY, Engine: wse.EngineFastForward})
		tr.end(id)
		t1 := cpuTime()
		id = tr.begin("kernels.build", root, "")
		s, err := kernels.NewBiCGStabStarWSE(m, stencilc.Spec7Point(), op)
		tr.end(id)
		t2 := cpuTime()
		r.Attempted++
		if err != nil {
			m.Close()
			return nil, nil, fmt.Errorf("build solver: %w", err)
		}
		setups = append(setups, (t2 - t0).Seconds())
		news = append(news, (t1 - t0).Seconds())
		builds = append(builds, (t2 - t1).Seconds())
		return m, s, nil
	}
	// read times readsPerBuild Fingerprint reads of m.
	read := func(m *wse.Machine) {
		// Let the collector finish the previous step's garbage first, so
		// that its work is not charged to the reads.
		runtime.GC()
		for i := 0; i < readsPerBuild; i++ {
			id := tr.begin("wse.fingerprint", 0, "")
			c := cpuTime()
			m.Fingerprint()
			reads = append(reads, cpuSince(c))
			tr.end(id)
			r.Attempted++
		}
	}
	solve := func(s *kernels.BiCGStabStarWSE, b []fp16.Float16) (heatSolve, error) {
		h := heatSolve{b: b}
		root := tr.begin("heat.solve", 0, "")
		defer tr.end(root)
		id := tr.begin("kernels.solve", root, "")
		var c1 time.Duration
		var w1 time.Time
		start, cstart := time.Now(), cpuTime()
		x, st, err := s.Solve(b, kernels.WSEOptions{MaxIter: cfg.Iters, Progress: func(it int, rel float64) {
			switch it {
			case 1:
				c1, w1 = cpuTime(), time.Now()
			case 2:
				h.iter = cpuSince(c1)
				tr.add("kernels.iter", id, "", w1, time.Now())
			}
		}})
		h.cpu, h.wall = cpuSince(cstart), time.Since(start).Seconds()
		tr.end(id)
		r.Attempted++
		h.x, h.st = x, st
		return h, err
	}

	var m *wse.Machine
	var s *kernels.BiCGStabStarWSE
	for i := 0; i < buildsBefore; i++ {
		if m != nil {
			m.Close()
		}
		var err error
		if m, s, err = build(); err != nil {
			return nil, err
		}
		read(m)
	}
	defer func() {
		if m != nil {
			m.Close()
		}
	}()

	// Warm-up: the first solve on a fresh machine pays for the cold
	// stencil applies. Its right-hand side is solved again after the
	// window, and the two solutions must agree bit for bit.
	warm, err := solve(s, heatRHS(rng, mesh.N()))
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}

	runtime.GC()
	before := sampleRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var solves []heatSolve
	for len(solves) < minSolves || time.Now().Before(deadline) {
		if time.Since(start) > maxSolveWindow {
			r.fail("heat-wafer: %d solves in %v, want at least %d", len(solves), maxSolveWindow, minSolves)
			break
		}
		h, err := solve(s, heatRHS(rng, mesh.N()))
		if err != nil {
			return nil, fmt.Errorf("solve: %w", err)
		}
		solves = append(solves, h)
	}
	window := time.Since(start).Seconds()
	after := sampleRuntime()

	again, err := solve(s, warm.b)
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	read(m)
	rss := peakRSSMB()
	m.Close()
	m, s = nil, nil

	// Correctness, after the window so that it is not timed.
	for _, h := range append([]heatSolve{warm, again}, solves...) {
		if !checkHeat(r, cfg, norm, h) {
			r.Failed++
		}
	}
	if msg := sameHalf(again.x, warm.x); msg != "" {
		r.Failed++
		r.fail("heat-wafer: a second solve of the first right-hand side differs: %s", msg)
	}
	cycles := warm.st.PerIteration.Total()
	for _, h := range solves {
		if got := h.st.PerIteration.Total(); got != cycles {
			r.fail("heat-wafer: per-iteration cycles differ across solves: %d and %d", cycles, got)
			break
		}
	}

	var cpus, walls, iters []float64
	for _, h := range solves {
		cpus = append(cpus, h.cpu)
		walls = append(walls, h.wall)
		iters = append(iters, h.iter)
	}
	solveCPU := median(cpus)
	if tr != nil {
		runtime.GC()
		if err := probeHeat(r, cfg, op, seed, solveCPU, tr); err != nil {
			return nil, err
		}
	}
	for len(setups) < setupBuilds {
		m, _, err := build()
		if err != nil {
			return nil, err
		}
		read(m)
		m.Close()
	}

	r.E2E["setup_s"] = metric{median(setups), "s"}
	r.E2E["solve_s"] = metric{solveCPU, "s"}
	r.E2E["sim_cycles_per_iter"] = metric{float64(cycles), "cycles"}
	r.E2E["peak_rss_mb"] = metric{rss, "MB"}
	r.E2E["job_p50_s"] = metric{median(walls), "s"}
	r.E2E["job_p90_s"] = metric{quantile(walls, 0.9), "s"}
	r.E2E["jobs_per_s"] = metric{ratio(float64(len(solves)), window), "1/s"}
	r.E2E["read_p50_s"] = metric{median(reads), "s"}
	r.Info["setups"] = len(setups)
	r.Info["solves"] = len(solves)
	r.Info["reads"] = len(reads)
	r.Info["window_s"] = window
	r.Info["history"] = warm.st.History

	if tr != nil {
		r.Layer["wse.new_s"] = metric{median(news), "s"}
		r.Layer["kernels.build_s"] = metric{median(builds), "s"}
		r.Layer["kernels.iter_s"] = metric{median(iters), "s"}
		layerCycles(r, warm.st.PerIteration)
		perUnit(r, before, after, len(solves))
	}
	return r, nil
}

// checkHeat applies TestPaperScaleBiCGStab's checks to a solve, pins
// its cycle account, and checks the returned solution against the
// residual the solve reports: ‖b − A·x‖/‖b‖, computed on the host in
// float64, must match the recurrence's last residual to within
// residualSlack. It reports whether all passed.
func checkHeat(r *result, cfg heatConfig, a *stencil.OpStar, h heatSolve) bool {
	n := len(r.Errors)
	st := h.st
	if st.Iterations != cfg.Iters || len(st.History) != cfg.Iters {
		r.fail("heat-wafer: %d iterations with %d residuals, want %d", st.Iterations, len(st.History), cfg.Iters)
	}
	for i, v := range st.History {
		if !(v > 0) || math.IsInf(v, 0) {
			r.fail("heat-wafer: residual %d is %v, want positive and finite", i, v)
		}
	}
	if c := st.Cycles; c.SpMV <= 0 || c.Dot <= 0 || c.AllReduce <= 0 || c.Axpy <= 0 {
		r.fail("heat-wafer: a phase accumulated no cycles: %+v", c)
	}
	if st.MaxARDrift > 1 {
		r.fail("heat-wafer: AllReduce drift %v exceeds the error model", st.MaxARDrift)
	}
	if got := st.PerIteration.Total(); cfg.CyclesPerIter != 0 && got != cfg.CyclesPerIter {
		r.fail("heat-wafer: %d cycles per iteration, pinned at %d", got, cfg.CyclesPerIter)
	}
	bf, xf := fp16.ToFloat64Slice(h.b), fp16.ToFloat64Slice(h.x)
	bnorm := 0.0
	for _, v := range bf {
		bnorm += v * v
	}
	trueRel := a.ResidualNorm(xf, bf) / math.Sqrt(bnorm)
	if k := len(st.History); k > 0 && !(math.Abs(trueRel-st.History[k-1]) <= residualSlack) {
		r.fail("heat-wafer: the solution's residual is %v, the solve reports %v", trueRel, st.History[k-1])
	}
	return len(r.Errors) == n
}

func sameHalf(x, want []fp16.Float16) string {
	if len(x) != len(want) {
		return fmt.Sprintf("%d values, want %d", len(x), len(want))
	}
	for i := range x {
		if x[i] != want[i] {
			return fmt.Sprintf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	return ""
}

// layerCycles reports the per-iteration cycle account by phase.
func layerCycles(r *result, p kernels.PhaseCycles) {
	r.Layer["kernels.cycles.spmv"] = metric{float64(p.SpMV), "cycles"}
	r.Layer["kernels.cycles.dot"] = metric{float64(p.Dot), "cycles"}
	r.Layer["kernels.cycles.allreduce"] = metric{float64(p.AllReduce), "cycles"}
	r.Layer["kernels.cycles.axpy"] = metric{float64(p.Axpy), "cycles"}
}

// probeHeat times the solve's layers one call at a time on a fresh
// machine of the same shape and engine: the compile of the solver's
// program and its cold and warm applications, and an AllReduce on the
// colors the solver gives it. Warm calls are timed probeRepeats times
// and the median is reported. kernels.other_s is what is left of the
// median solve after its AllReduces (4 per iteration plus the setup
// one) and its applications (2 per iteration, all warm).
func probeHeat(r *result, cfg heatConfig, op *stencil.OpStarHalf, seed int64, solve float64, tr *tracer) error {
	root := tr.begin("heat.probe", 0, "")
	defer tr.end(root)
	m := wse.New(wse.Config{FabricW: cfg.NX, FabricH: cfg.NY, Engine: wse.EngineFastForward})
	defer m.Close()

	id := tr.begin("stencilc.compile", root, "")
	c := cpuTime()
	prog, err := stencilc.Compile3D(m, stencilc.Spec7Point(), op, 0, 0, 0)
	compile := cpuSince(c)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe compile: %w", err)
	}
	maxCycles := int64(cfg.NZ)*1000 + 1<<20
	var applies []float64
	for i := 0; i <= probeRepeats; i++ {
		id := tr.begin("stencilc.apply", root, "")
		c := cpuTime()
		_, err := prog.Run(maxCycles)
		applies = append(applies, cpuSince(c))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("probe apply: %w", err)
		}
	}

	ar, err := kernels.NewAllReduce(m, kernels.NumStencil2DColors)
	if err != nil {
		return fmt.Errorf("probe allreduce: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float32, cfg.NX*cfg.NY)
	for i := range vals {
		vals[i] = float32(rng.Intn(17)) * 0.25
	}
	// The first reduction on fresh colors is cold; the solve's are warm,
	// so the first is left out.
	var reduces []float64
	var res kernels.AllReduceResult
	for i := 0; i <= probeRepeats; i++ {
		id = tr.begin("kernels.allreduce", root, "")
		c = cpuTime()
		res, err = ar.Run(vals, 1<<20)
		reduces = append(reduces, cpuSince(c))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("probe allreduce: %w", err)
		}
	}

	warm, reduce := median(applies[1:]), median(reduces[1:])
	nAR := float64(4*cfg.Iters + 1)
	nApply := float64(2 * cfg.Iters)
	r.Layer["stencilc.compile_s"] = metric{compile, "s"}
	r.Layer["stencilc.apply_first_s"] = metric{applies[0], "s"}
	r.Layer["stencilc.apply_s"] = metric{warm, "s"}
	r.Layer["kernels.allreduce_s"] = metric{reduce, "s"}
	r.Layer["kernels.allreduce_cycles"] = metric{float64(res.Cycles), "cycles"}
	r.Layer["kernels.other_s"] = metric{solve - nAR*reduce - nApply*warm, "s"}
	return nil
}
