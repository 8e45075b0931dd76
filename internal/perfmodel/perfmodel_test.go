package perfmodel_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/wse"
)

func TestHeadlineCalibration(t *testing.T) {
	// The paper-calibrated model must reproduce §V: 28.1 µs/iteration and
	// 0.86 PFLOPS at ~1/3 of peak.
	us, pf, frac := perfmodel.HeadlinePrediction(perfmodel.PaperModel())
	if math.Abs(us-28.1) > 0.3 {
		t.Errorf("modelled iteration %.2f µs, paper 28.1", us)
	}
	if math.Abs(pf-0.86) > 0.02 {
		t.Errorf("modelled %.3f PFLOPS, paper 0.86", pf)
	}
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("fraction of peak %.2f, paper says about one third", frac)
	}
}

func TestSimModelPredictsSimulator(t *testing.T) {
	// The Eta=1 model must track the cycle simulator across fabric shapes
	// and Z within 20% — the validation step the paper performs for its
	// own performance model.
	if testing.Short() {
		t.Skip("cycle-sim validation in short mode")
	}
	model := perfmodel.SimModel()
	for _, tc := range []struct{ w, h, z int }{
		{4, 4, 32}, {4, 4, 64}, {6, 3, 48}, {8, 8, 32}, {3, 6, 96},
	} {
		rng := rand.New(rand.NewSource(int64(tc.w * tc.h * tc.z)))
		m := stencil.Mesh{NX: tc.w, NY: tc.h, NZ: tc.z}
		op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
		norm, diag := op.Normalize()
		xe := make([]float64, m.N())
		for i := range xe {
			xe[i] = rng.Float64()
		}
		b64 := make([]float64, m.N())
		op.Apply(b64, xe)
		sb := stencil.ScaleRHS(b64, diag)

		mach := wse.New(wse.CS1(tc.w, tc.h))
		solverW, err := kernels.NewBiCGStabWSE(mach, stencil.NewOp7Half(norm))
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := solverW.Solve(fp16.FromFloat64Slice(sb), kernels.WSEOptions{MaxIter: 3})
		if err != nil {
			t.Fatal(err)
		}
		measured := float64(st.PerIteration.Total())
		wcfg := perfmodel.WSE{W: tc.w, H: tc.h, ClockHz: 1.1e9, SIMD: 4}
		predicted := model.IterationCycles(wcfg, tc.z).Total()
		ratio := predicted / measured
		t.Logf("%dx%dx%d: simulator %v cycles/iter, model %.0f (ratio %.2f)",
			tc.w, tc.h, tc.z, measured, predicted, ratio)
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%dx%dx%d: model off by %.0f%%", tc.w, tc.h, tc.z, 100*(ratio-1))
		}
	}
}

func TestAllReduceModelMatchesSimulator(t *testing.T) {
	// The parity-aware model must reproduce the cycle simulator exactly —
	// including odd-dimension fabrics, where a single central row/column
	// serializes both halves of its reduction (the case the old
	// diameter+7 model missed, and the parity class the 602×595 paper
	// wafer falls into with h = 595).
	for _, dims := range [][2]int{
		{8, 8}, {16, 16}, {32, 24}, {48, 48}, {10, 30}, // even × even
		{17, 16}, {33, 24}, {9, 9}, {32, 25}, {47, 48}, {49, 49}, // odd shapes
		// Narrow fabrics (a dimension ≤ 2 is all central lines): the
		// degenerate wafers a fine multiwafer split produces.
		{1, 1}, {2, 2}, {1, 2}, {2, 6}, {6, 2}, {2, 5}, {1, 9}, {8, 1}, {4, 2},
	} {
		mach := wse.New(wse.CS1(dims[0], dims[1]))
		ar, err := kernels.NewAllReduce(mach, 0)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float32, dims[0]*dims[1])
		for i := range vals {
			vals[i] = 1
		}
		res, err := ar.Run(vals, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		w := perfmodel.WSE{W: dims[0], H: dims[1], ClockHz: 1.1e9, SIMD: 4}
		if got, want := w.AllReduceCycles(), float64(res.Cycles); got != want {
			t.Errorf("%dx%d: model %g cycles, simulator %g", dims[0], dims[1], got, want)
		}
	}
}

// TestAllReduceReplayCycles pins the AllReduce replay's phase
// timeline to the parity-aware closed form on every shape up to 64×64
// and on the paper wafer, so the two exact models of the Figure-6
// reduction cannot drift apart.
func TestAllReduceReplayCycles(t *testing.T) {
	shapes := [][2]int{{602, 595}}
	for w := 1; w <= 64; w++ {
		for h := 1; h <= 64; h++ {
			shapes = append(shapes, [2]int{w, h})
		}
	}
	for _, d := range shapes {
		got := perfmodel.NewAllReduceReplay(d[0], d[1]).Cycles()
		want := perfmodel.WSE{W: d[0], H: d[1], ClockHz: 1.1e9, SIMD: 4}.AllReduceCycles()
		if float64(got) != want {
			t.Errorf("%dx%d: replay %d cycles, AllReduceCycles %g", d[0], d[1], got, want)
		}
	}
}

func TestAllReduceWaferLatency(t *testing.T) {
	// The full-wafer AllReduce must come in under the paper's 1.5 µs. The
	// measured shape is ~1.25× the diameter — above the paper's ~1.1×
	// because the 595-row fabric has a single central row serializing
	// both column halves (the paper's ~1.1× holds on even×even fabrics).
	w := perfmodel.CS1()
	sec := w.AllReduceSeconds()
	if sec >= 1.5e-6 {
		t.Errorf("wafer AllReduce %.3g s, paper bound 1.5 µs", sec)
	}
	diam := float64(w.W + w.H - 2)
	ratio := w.AllReduceCycles() / diam
	if ratio < 1.0 || ratio > 1.3 {
		t.Errorf("AllReduce/diameter = %.3f, want ~1.25 (sub-diameter is impossible)", ratio)
	}
}

func TestAllReducePaperScalePin(t *testing.T) {
	// Pin the model to the cycle-simulated 602×595 measurement (1497
	// cycles, TestPaperScaleAllReduce in internal/core) within 1%, so the
	// model and the simulator can never silently drift apart again. The
	// simulator side of the same contract lives in the paper-scale test,
	// which compares its live measurement against this model.
	const measured = 1497
	got := perfmodel.CS1().AllReduceCycles()
	if rel := math.Abs(got-measured) / measured; rel > 0.01 {
		t.Errorf("AllReduceCycles(602x595) = %g, simulator measures %d (off %.2f%%)",
			got, measured, 100*rel)
	}
}

func TestMemoryAccounting(t *testing.T) {
	// §IV: 10·Z words ≈ 31 KB of 48 KB at Z = 1536.
	if got := perfmodel.TileVectorBytes(1536); got != 30720 {
		t.Errorf("tile vector bytes = %d, want 30720 (~31KB)", got)
	}
	if maxZ := perfmodel.MaxZ(48 * 1024); maxZ < 2000 || maxZ > 2600 {
		t.Errorf("max Z = %d, expected ~2457", maxZ)
	}
}

func TestBlock2D(t *testing.T) {
	// §IV-2: blocks up to 38×38 fit; 8×8 blocks overhead < 20%.
	if b := perfmodel.MaxBlock2D(48 * 1024); b != 38 {
		t.Errorf("max 2D block = %d, paper says 38", b)
	}
	if ov := perfmodel.Overhead2D(8); ov >= 0.20 {
		t.Errorf("overhead(8) = %.3f, paper says < 20%%", ov)
	}
	if ov := perfmodel.Overhead2D(38); ov > perfmodel.Overhead2D(8) {
		t.Error("overhead should decrease with block size")
	}
	// Monotone decrease toward the 12.5% diagonal floor.
	f := func(b8 uint8) bool {
		b := int(b8%37) + 2
		return perfmodel.Overhead2D(b) >= perfmodel.Overhead2D(b+1) && perfmodel.Overhead2D(b) > 0.125
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMachineBalance(t *testing.T) {
	// Figure 1's story: every conventional system needs orders of
	// magnitude more flops per word than the wafer.
	entries := perfmodel.MachineBalance()
	var cs1 *perfmodel.BalanceEntry
	for i := range entries {
		if entries[i].WaferScale {
			cs1 = &entries[i]
		}
	}
	if cs1 == nil {
		t.Fatal("no wafer-scale entry")
	}
	for _, e := range entries {
		if e.WaferScale {
			continue
		}
		if e.FlopsPerWordMemory < 2*cs1.FlopsPerWordMemory {
			t.Errorf("%s: memory balance %.1f should dwarf CS-1's %.2f",
				e.System, e.FlopsPerWordMemory, cs1.FlopsPerWordMemory)
		}
		if e.FlopsPerWordNetwork < 5*cs1.FlopsPerWordNetwork {
			t.Errorf("%s: network balance should dwarf CS-1's", e.System)
		}
	}
}

func TestFlopAccounting(t *testing.T) {
	// Table I: 44 ops/meshpoint; §V: 0.86 PFLOPS implies 24.1 Gflop per
	// iteration over the headline mesh.
	mesh, us, pf := perfmodel.Headline()
	flops := perfmodel.FlopsPerIteration(mesh.X, mesh.Y, mesh.Z)
	if math.Abs(flops-2.41275e10) > 1e7 {
		t.Errorf("flops/iteration = %g", flops)
	}
	implied := flops / (us * 1e-6) / 1e15
	if math.Abs(implied-pf) > 0.01 {
		t.Errorf("paper numbers inconsistent? %g PFLOPS implied vs %g stated", implied, pf)
	}
}

func TestCalibrateEtaRoundTrip(t *testing.T) {
	m := perfmodel.SimModel()
	w := perfmodel.CS1()
	eta := m.CalibrateEta(w, 1536, 28.1e-6)
	if math.Abs(eta-perfmodel.PaperEta) > 0.01 {
		t.Errorf("calibrated eta %.4f, stored perfmodel.PaperEta %.4f", eta, perfmodel.PaperEta)
	}
}

func TestShapeSweepMonotone(t *testing.T) {
	pts := perfmodel.ShapeSweep(perfmodel.PaperModel(), []int{256, 512, 1024, 1536, 2048})
	for i := 1; i < len(pts); i++ {
		if pts[i].IterMicros <= pts[i-1].IterMicros {
			t.Error("iteration time must grow with Z")
		}
		if pts[i].PFLOPS <= pts[i-1].PFLOPS {
			t.Error("throughput must improve with Z (AllReduce latency amortizes)")
		}
	}
}
