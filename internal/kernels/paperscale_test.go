package kernels

import (
	"testing"
	"time"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// paperScaleRun is everything the paper-scale test pins about one
// solve: the solution bits, the solver stats, the machine's final
// architectural fingerprint, and how many of the solve's AllReduces
// were replayed analytically versus cycle-simulated.
type paperScaleRun struct {
	x                   []fp16.Float16
	st                  WSEStats
	fp                  uint64
	replayed, simulated int
}

// paperScaleSolve builds the 3-D heat operator on an nx×ny×nz mesh and
// runs a two-iteration BiCGStab solve on a wafer of the matching fabric
// extent under the given engine.
func paperScaleSolve(t testing.TB, nx, ny, nz int, eng wse.Engine) paperScaleRun {
	t.Helper()
	m := wse.New(wse.Config{FabricW: nx, FabricH: ny, Engine: eng})
	defer m.Close()

	mesh := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
	s, err := NewBiCGStabStarWSE(m, stencilc.Spec7Point(), stencil.NewOpStarHalf(norm))
	if err != nil {
		t.Fatal(err)
	}
	bh := make([]fp16.Float16, mesh.N())
	for i := range bh {
		bh[i] = fp16.FromFloat64(float64((i%23)-11) / 28)
	}
	x, st, err := s.Solve(bh, WSEOptions{MaxIter: 2, Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	r := paperScaleRun{x: x, st: st, fp: m.Fingerprint()}
	r.replayed, r.simulated = s.eng.ar.Runs()
	return r
}

// paperScaleAllReduces is the number of AllReduces a two-iteration
// solve runs: the setup ‖b‖² plus four per iteration.
const paperScaleAllReduces = 1 + 4*2

// checkReplayed requires every AllReduce of a fast-forward solve to
// have taken the analytic replay.
func checkReplayed(t *testing.T, leg string, r paperScaleRun) {
	t.Helper()
	if r.replayed != paperScaleAllReduces || r.simulated != 0 {
		t.Errorf("%s: %d AllReduces replayed and %d cycle-simulated, want all %d replayed",
			leg, r.replayed, r.simulated, paperScaleAllReduces)
	}
}

// TestPaperScaleBiCGStab runs the paper's headline configuration — a
// full BiCGStab solve of the 3-D heat operator mapped one mesh column
// per PE across the complete 602×595 wafer — inside the ordinary test
// suite, under the hybrid fast-forward engine (wse.EngineFastForward:
// stencil exchanges and AllReduces replayed by the perfmodel's exact
// word-level models, dot and AXPY phases jumped analytically, memory
// advanced bit-exactly on the host, only phase boundaries
// cycle-simulated). The wall-time bound is the point: the same solve
// under pure cycle simulation takes tens of minutes, which is why
// paper-scale runs used to live only in perfmodel extrapolations.
//
// The fast-forward engine's contract is bit- and cycle-identity with
// sequential stepping. That is pinned here on a smaller wafer where the
// sequential run is affordable — same solver, same operator family,
// every observable compared: residual history (float64, exact), the
// solution's fp16 bits, the per-phase cycle counters, and the machine
// fingerprint. The wse difftest and stencilc equivalence suites pin the
// same contract per-cycle at instruction granularity.
//
// Skipped in -short mode and under the race detector (see raceEnabled);
// CI executes it in the dedicated non-race paper-scale step.
func TestPaperScaleBiCGStab(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale solve: skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("paper-scale solve: skipped under the race detector")
	}

	// Equivalence leg: fast-forward vs sequential on a 60×50 wafer.
	seq := paperScaleSolve(t, 60, 50, 4, wse.EngineSequential)
	ff := paperScaleSolve(t, 60, 50, 4, wse.EngineFastForward)
	xSeq, stSeq, fpSeq := seq.x, seq.st, seq.fp
	xFF, stFF, fpFF := ff.x, ff.st, ff.fp
	checkReplayed(t, "60×50 fast-forward", ff)
	if seq.replayed != 0 || seq.simulated != paperScaleAllReduces {
		t.Errorf("60×50 sequential: %d AllReduces replayed and %d cycle-simulated, want all %d simulated",
			seq.replayed, seq.simulated, paperScaleAllReduces)
	}
	if len(xSeq) != len(xFF) {
		t.Fatalf("solution lengths differ: seq %d, ff %d", len(xSeq), len(xFF))
	}
	for i := range xSeq {
		if xSeq[i] != xFF[i] {
			t.Fatalf("x[%d] bits diverge: seq %#04x, ff %#04x", i, uint16(xSeq[i]), uint16(xFF[i]))
		}
	}
	if len(stSeq.History) != len(stFF.History) {
		t.Fatalf("history lengths differ: seq %v, ff %v", stSeq.History, stFF.History)
	}
	for i := range stSeq.History {
		if stSeq.History[i] != stFF.History[i] {
			t.Errorf("residual history[%d] diverges: seq %v, ff %v", i, stSeq.History[i], stFF.History[i])
		}
	}
	if stSeq.Cycles != stFF.Cycles || stSeq.SetupCycles != stFF.SetupCycles {
		t.Errorf("cycle counters diverge:\nseq %+v setup %d\nff  %+v setup %d",
			stSeq.Cycles, stSeq.SetupCycles, stFF.Cycles, stFF.SetupCycles)
	}
	if stSeq.Iterations != stFF.Iterations || stSeq.Converged != stFF.Converged {
		t.Errorf("iteration outcomes diverge: seq %d/%v, ff %d/%v",
			stSeq.Iterations, stSeq.Converged, stFF.Iterations, stFF.Converged)
	}
	if stSeq.MaxARDrift != stFF.MaxARDrift {
		t.Errorf("AllReduce drift diverges: seq %v, ff %v", stSeq.MaxARDrift, stFF.MaxARDrift)
	}
	if fpSeq != fpFF {
		t.Errorf("machine fingerprints diverge: seq %#x, ff %#x", fpSeq, fpFF)
	}
	t.Logf("60×50 equivalence: hist=%v cycles=%+v fp=%#x", stFF.History, stFF.Cycles, fpFF)

	// Paper-scale leg: the full wafer, fast-forward engine, with the
	// wall-time budget that makes it a CI test rather than an overnight
	// job. A trip here is a performance regression in the fast-forward
	// path, not noise: the solve takes a fraction of the budget.
	start := time.Now()
	ps := paperScaleSolve(t, 602, 595, 4, wse.EngineFastForward)
	elapsed := time.Since(start)
	x, st, fp := ps.x, ps.st, ps.fp
	t.Logf("602×595 solve: %v  iters=%d cycles=%+v setup=%d hist=%v x0=%#04x fp=%#x",
		elapsed, st.Iterations, st.Cycles, st.SetupCycles, st.History, uint16(x[0]), fp)
	checkReplayed(t, "602×595", ps)

	// The paper-scale cycle account, per iteration: two 7-point
	// applications (17 cycles each), four dots (2 each), four Figure-6
	// AllReduces at 1497 cycles (perfmodel.AllReduceCycles for 602×595)
	// and six AXPYs — 6036 cycles; the setup is one dot plus one
	// AllReduce.
	wantIter := PhaseCycles{SpMV: 34, Dot: 8, AllReduce: 5988, Axpy: 6}
	if st.PerIteration != wantIter || st.PerIteration.Total() != 6036 {
		t.Errorf("602×595 cycles per iteration %+v (total %d), want %+v (6036)",
			st.PerIteration, st.PerIteration.Total(), wantIter)
	}
	if st.SetupCycles != 1499 {
		t.Errorf("602×595 setup cycles %d, want 1499", st.SetupCycles)
	}

	if st.Iterations != 2 || len(st.History) != 2 {
		t.Errorf("expected 2 full iterations with residual history, got %d (%v)", st.Iterations, st.History)
	}
	for i, h := range st.History {
		if !(h > 0) { // catches NaN and a degenerate zero residual alike
			t.Errorf("residual history[%d] = %v, want a positive finite value", i, h)
		}
	}
	if st.Cycles.SpMV <= 0 || st.Cycles.Dot <= 0 || st.Cycles.AllReduce <= 0 || st.Cycles.Axpy <= 0 {
		t.Errorf("every phase must accumulate cycles: %+v", st.Cycles)
	}
	if elapsed >= 60*time.Second {
		t.Errorf("paper-scale solve took %v, budget is <60s", elapsed)
	}
}
