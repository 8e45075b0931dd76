package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// probeRepeats is how many times each warm call is timed; the median is
// reported.
const probeRepeats = 5

// probeWafer times, one call at a time, the layers a daemon wafer job
// passes through, on a machine of the job's shape built the way the
// daemon builds it: the cold build, the warm-cache checkout (snapshot
// restore and coefficient load) and warm solve, the Listing-1 SpMV and
// the fabric's AllReduce.
func probeWafer(r *result, c daemonConfig, seed int64, tr *tracer) error {
	root := tr.begin("daemon.probe", 0, "")
	defer tr.end(root)
	spec := c.jobSpec(rand.New(rand.NewSource(seed)))
	p, err := spec.BuildProblem()
	if err != nil {
		return err
	}
	norm, diag := p.Op.Normalize()
	b := fp16.FromFloat64Slice(stencil.ScaleRHS(p.B, diag))
	op := stencil.NewOp7Half(norm)
	opts := kernels.WSEOptions{MaxIter: c.Iters}

	timed := func(name string, f func() error) (float64, error) {
		id := tr.begin(name, root, "")
		defer tr.end(id)
		t := time.Now()
		err := f()
		return time.Since(t).Seconds(), err
	}

	mach := wse.New(wse.CS1(c.NX, c.NY))
	defer mach.Close()
	var solver *kernels.BiCGStabWSE
	build, err := timed("kernels.build", func() (err error) {
		solver, err = kernels.NewBiCGStabWSE(mach, op)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe build: %w", err)
	}
	pristine, err := solver.Pristine()
	if err != nil {
		return err
	}
	if _, err := timed("kernels.solve", func() error { _, _, err := solver.Solve(b, opts); return err }); err != nil {
		return fmt.Errorf("probe solve: %w", err)
	}
	var restores, solves []float64
	for i := 0; i < probeRepeats; i++ {
		d, err := timed("wse.restore", func() error { return solver.Reset(pristine) })
		if err != nil {
			return fmt.Errorf("probe restore: %w", err)
		}
		restores = append(restores, d)
		if err := solver.LoadCoeff(op); err != nil {
			return err
		}
		d, err = timed("kernels.warm_solve", func() error { _, _, err := solver.Solve(b, opts); return err })
		if err != nil {
			return fmt.Errorf("probe warm solve: %w", err)
		}
		solves = append(solves, d)
	}

	m2 := wse.New(wse.CS1(c.NX, c.NY))
	defer m2.Close()
	spmv, err := kernels.NewSpMV3D(m2, op)
	if err != nil {
		return fmt.Errorf("probe spmv: %w", err)
	}
	spmv.LoadVector(b)
	var spmvs []float64
	var spmvCycles int64
	for i := 0; i < probeRepeats; i++ {
		d, err := timed("kernels.spmv", func() (err error) {
			spmvCycles, err = spmv.Run(1 << 20)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe spmv: %w", err)
		}
		spmvs = append(spmvs, d)
	}
	ar, err := kernels.NewAllReduce(m2, kernels.NumStencilColors)
	if err != nil {
		return fmt.Errorf("probe allreduce: %w", err)
	}
	vals := make([]float32, c.NX*c.NY)
	for i := range vals {
		vals[i] = float32(i%17) * 0.25
	}
	var reduces []float64
	var arCycles int64
	for i := 0; i < probeRepeats; i++ {
		d, err := timed("kernels.allreduce", func() error {
			res, err := ar.Run(vals, 1<<20)
			arCycles = res.Cycles
			return err
		})
		if err != nil {
			return fmt.Errorf("probe allreduce: %w", err)
		}
		reduces = append(reduces, d)
	}

	r.Layer["kernels.build_s"] = metric{build, "s"}
	r.Layer["wse.restore_s"] = metric{median(restores), "s"}
	r.Layer["kernels.warm_solve_s"] = metric{median(solves), "s"}
	r.Layer["kernels.spmv_s"] = metric{median(spmvs), "s"}
	r.Layer["kernels.spmv_cycles"] = metric{float64(spmvCycles), "cycles"}
	r.Layer["kernels.allreduce_s"] = metric{median(reduces), "s"}
	r.Layer["kernels.allreduce_cycles"] = metric{float64(arCycles), "cycles"}
	return nil
}
