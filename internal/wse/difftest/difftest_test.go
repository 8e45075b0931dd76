package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// config builds the standard CS1-derived configuration for engine e.
// The sharded engine gets a fixed worker count so the shard partition —
// and therefore the schedule it must prove equivalent under — is the
// same on every run.
func config(w, h int, e wse.Engine) wse.Config {
	cfg := wse.CS1(w, h)
	cfg.Engine = e
	if e == wse.EngineSharded {
		cfg.Workers = 3
	}
	return cfg
}

// halfVec returns a deterministic pseudo-random fp16 vector in (-1, 1).
func halfVec(n int, seed int64) []fp16.Float16 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]fp16.Float16, n)
	for i := range v {
		v[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	return v
}

// program3D compiles spec for op on a wafer exactly covering the mesh
// (so no host halo fill is needed: every off-fabric direction is also
// off-mesh and its term is skipped), loads src, and arms one
// application. Driving the armed program cycle by cycle instead of
// calling Run keeps the fast-forward engine on its stepping path — the
// analytic jump is covered by TestRunEndState at its phase boundary.
func program3D(t *testing.T, spec stencilc.Spec, op *stencil.OpStarHalf, src []fp16.Float16) func(e wse.Engine) *Instance {
	return func(e wse.Engine) *Instance {
		m := wse.New(config(op.M.NX, op.M.NY, e))
		p, err := stencilc.Compile3D(m, spec, op, 0, 0, 0)
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		loadIterate(p, src)
		p.Arm()
		return &Instance{M: m, Tick: p.Done}
	}
}

func loadIterate(p *stencilc.Program3D, src []fp16.Float16) {
	m := p.Mesh
	for i := 0; i < p.Tiles(); i++ {
		gx, gy := p.GlobalCoord(i)
		copy(p.Iterate(i), src[m.Index(gx, gy, 0):m.Index(gx, gy, 0)+m.NZ])
	}
}

// TestLockstepAllReduce locksteps the Figure 6 scalar AllReduce: host
// ramp actors over six colors of routed fabric, no core instructions —
// the engine-sensitive part is the fabric stepper and the rx-delivery
// wake plumbing.
func TestLockstepAllReduce(t *testing.T) {
	const w, h = 7, 5
	values := make([]float32, w*h)
	for i := range values {
		values[i] = float32(i%13)*0.25 - 1
	}
	var ars []*kernels.AllReduce
	Lockstep(t, 1<<16, func(e wse.Engine) *Instance {
		m := wse.New(config(w, h, e))
		ar, err := kernels.NewAllReduce(m, 0)
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		if err := ar.Begin(values); err != nil {
			m.Close()
			t.Fatal(err)
		}
		ars = append(ars, ar)
		return &Instance{M: m, Tick: ar.Tick}
	})
	want := ars[0].Result()
	for _, ar := range ars[1:] {
		got := ar.Result()
		if got.Sum != want.Sum || got.Cycles != want.Cycles {
			t.Errorf("allreduce result diverges: %+v vs %+v", got, want)
		}
	}
}

// TestAllReduceReplayEndState pins the AllReduce replay — the
// fast-forward engine's jump over the Figure-6 reduction — at its only
// observable boundary, a finished AllReduce.Run, across the full shape
// sweep of perfmodel's TestAllReduceModelMatchesSimulator: even, odd
// and narrow (≤ 2) extents. Every shape runs on a fresh fabric and
// again after a compiled 7-point application has left rotations and a
// hot set behind (the reduction then shares its routers with the
// exchange colors, as in the star solver). The replay must land on the
// sequential engine's state exactly — fingerprint, cycles, sum and
// broadcast bits — in perfmodel.AllReduceCycles cycles, and must
// actually have replayed.
func TestAllReduceReplayEndState(t *testing.T) {
	shapes := [][2]int{
		{8, 8}, {16, 16}, {32, 24}, {48, 48}, {10, 30},
		{17, 16}, {33, 24}, {9, 9}, {32, 25}, {47, 48}, {49, 49},
		{1, 1}, {2, 2}, {1, 2}, {2, 6}, {6, 2}, {2, 5}, {1, 9}, {8, 1}, {4, 2},
	}
	for _, d := range shapes {
		for _, applied := range []bool{false, true} {
			w, h := d[0], d[1]
			mesh := stencil.Mesh{NX: w, NY: h, NZ: 4}
			norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
			op := stencil.NewOpStarHalf(norm)
			src := halfVec(mesh.N(), int64(w*100+h))
			values := make([]float32, w*h)
			for i := range values {
				values[i] = float32(i%29)*0.375 - 5 + float32(i%3)*1e-3
			}
			run := func(e wse.Engine) (kernels.AllReduceResult, uint64, string, int) {
				m := wse.New(config(w, h, e))
				defer m.Close()
				p, err := stencilc.Compile3D(m, stencilc.Spec7Point(), op, 0, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				ar, err := kernels.NewAllReduce(m, kernels.NumStencil2DColors)
				if err != nil {
					t.Fatal(err)
				}
				if applied {
					loadIterate(p, src)
					if _, err := p.Run(1 << 20); err != nil {
						t.Fatal(err)
					}
				}
				res, err := ar.Run(values, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				replayed, _ := ar.Runs()
				// Hot marks sit outside the fingerprint but charge the
				// next cycle's rotations, so they are compared too.
				return res, m.Fingerprint(), fmt.Sprint(m.Fab.CaptureState().Hot), replayed
			}
			seq, seqFP, seqHot, _ := run(wse.EngineSequential)
			ff, ffFP, ffHot, replayed := run(wse.EngineFastForward)
			name := fmt.Sprintf("%dx%d applied=%v", w, h, applied)
			if replayed != 1 {
				t.Errorf("%s: the fast-forward AllReduce did not replay", name)
			}
			if ff.Cycles != seq.Cycles {
				t.Errorf("%s: cycles diverge: seq %d, replay %d", name, seq.Cycles, ff.Cycles)
			}
			model := perfmodel.WSE{W: w, H: h, ClockHz: 1.1e9, SIMD: 4}.AllReduceCycles()
			if float64(ff.Cycles) != model {
				t.Errorf("%s: replay %d cycles, perfmodel.AllReduceCycles %g", name, ff.Cycles, model)
			}
			if math.Float32bits(ff.Sum) != math.Float32bits(seq.Sum) {
				t.Errorf("%s: sum bits diverge: seq %#08x, replay %#08x", name, math.Float32bits(seq.Sum), math.Float32bits(ff.Sum))
			}
			for i := range seq.PerTile {
				if math.Float32bits(ff.PerTile[i]) != math.Float32bits(seq.PerTile[i]) {
					t.Errorf("%s: tile %d broadcast diverges: seq %v, replay %v", name, i, seq.PerTile[i], ff.PerTile[i])
					break
				}
			}
			if ffFP != seqFP {
				t.Errorf("%s: fingerprints diverge: seq %#x, replay %#x", name, seqFP, ffFP)
			}
			if ffHot != seqHot {
				t.Errorf("%s: hot sets diverge: seq %s, replay %s", name, seqHot, ffHot)
			}
		}
	}
}

// TestLockstepSpec9Point locksteps the 2-D 9-point box program — the
// block-interior MemOp streams are exactly the shape the batched
// engine's equivalence classes target, and the column/row exchanges
// provide mid-batch rx divergence.
func TestLockstepSpec9Point(t *testing.T) {
	m2 := stencil.Mesh2D{NX: 12, NY: 8}
	op, _ := stencil.Random9(m2, 1.4, rand.New(rand.NewSource(29))).Normalize9()
	src := halfVec(m2.N(), 31)
	const b = 4
	Lockstep(t, 1<<18, func(e wse.Engine) *Instance {
		m := wse.New(config(m2.NX/b, m2.NY/b, e))
		p, err := stencilc.Compile2D(m, stencilc.Spec9Point(), op, b, 0)
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		p.LoadVector(src)
		p.Arm()
		return &Instance{M: m, Tick: p.Done}
	})
}

func TestLockstepSpec7Point(t *testing.T) {
	m3 := stencil.Mesh{NX: 6, NY: 5, NZ: 6}
	norm, _ := stencil.Heat3D(m3, 0.1, stencil.Dirichlet).Normalize()
	Lockstep(t, 1<<18, program3D(t, stencilc.Spec7Point(), stencil.NewOpStarHalf(norm), halfVec(m3.N(), 37)))
}

// TestLockstepSeismic25 locksteps the 25-point seismic star: four
// relay rounds per direction on a fabric narrower than the relay
// width, the heaviest exchange schedule the compiler emits.
func TestLockstepSeismic25(t *testing.T) {
	m3 := stencil.Mesh{NX: 6, NY: 4, NZ: 8}
	norm, _ := stencil.Seismic25(m3, 0.08).Normalize()
	Lockstep(t, 1<<18, program3D(t, stencilc.SpecSeismic25(), stencil.NewOpStarHalf(norm), halfVec(m3.N(), 41)))
}

// TestLockstepHeat locksteps the heat program with the fused residual
// reduction (ReduceSumSq), covering the DotMixed instruction — the
// second batchable instruction class — alongside the MemOp streams.
func TestLockstepHeat(t *testing.T) {
	m3 := stencil.Mesh{NX: 5, NY: 4, NZ: 6}
	norm, _ := stencil.Heat3D(m3, 0.12, stencil.Dirichlet).Normalize()
	Lockstep(t, 1<<18, program3D(t, stencilc.SpecHeat3D(), stencil.NewOpStarHalf(norm), halfVec(m3.N(), 43)))
}

// TestRunEndState pins the fast-forward engine at the only boundary
// where it is observable: a Program3D.Run that takes the analytic jump
// must land on exactly the state the sequential engine reaches by
// cycle simulation — same cycle count, same result bits, same
// partials, same machine fingerprint, and the same fabric hot set
// (outside the fingerprint, but it charges the next phase's
// rotations).
func TestRunEndState(t *testing.T) {
	cases := []struct {
		name string
		spec stencilc.Spec
		mesh stencil.Mesh
	}{
		{"spec7", stencilc.Spec7Point(), stencil.Mesh{NX: 6, NY: 5, NZ: 6}},
		{"seismic25", stencilc.SpecSeismic25(), stencil.Mesh{NX: 6, NY: 4, NZ: 8}},
		{"heat", stencilc.SpecHeat3D(), stencil.Mesh{NX: 5, NY: 4, NZ: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			norm, _ := stencil.Seismic25(tc.mesh, 0.08).Normalize()
			if tc.spec.Widths[0] == 1 {
				norm, _ = stencil.Heat3D(tc.mesh, 0.1, stencil.Dirichlet).Normalize()
			}
			op := stencil.NewOpStarHalf(norm)
			src := halfVec(tc.mesh.N(), 47)
			run := func(e wse.Engine) (int64, []fp16.Float16, []float32, uint64, string) {
				m := wse.New(config(tc.mesh.NX, tc.mesh.NY, e))
				defer m.Close()
				p, err := stencilc.Compile3D(m, tc.spec, op, 0, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				loadIterate(p, src)
				cycles, err := p.Run(1 << 20)
				if err != nil {
					t.Fatal(err)
				}
				res := make([]fp16.Float16, 0, tc.mesh.N())
				for i := 0; i < p.Tiles(); i++ {
					res = append(res, p.Result(i)...)
				}
				return cycles, res, append([]float32(nil), p.Partials()...), m.Fingerprint(), fmt.Sprint(m.Fab.CaptureState().Hot)
			}
			seqCyc, seqRes, seqPart, seqFP, seqHot := run(wse.EngineSequential)
			ffCyc, ffRes, ffPart, ffFP, ffHot := run(wse.EngineFastForward)
			if seqHot != ffHot {
				t.Errorf("hot sets diverge: seq %s, ff %s", seqHot, ffHot)
			}
			if seqCyc != ffCyc {
				t.Errorf("cycles diverge: seq %d, ff %d", seqCyc, ffCyc)
			}
			for i := range seqRes {
				if seqRes[i] != ffRes[i] {
					t.Fatalf("result[%d] bits diverge: seq %#04x, ff %#04x", i, uint16(seqRes[i]), uint16(ffRes[i]))
				}
			}
			for i := range seqPart {
				if seqPart[i] != ffPart[i] {
					t.Errorf("partial[%d] diverges: seq %v, ff %v", i, seqPart[i], ffPart[i])
				}
			}
			if seqFP != ffFP {
				t.Errorf("fingerprints diverge: seq %#x, ff %#x", seqFP, ffFP)
			}
		})
	}
}
