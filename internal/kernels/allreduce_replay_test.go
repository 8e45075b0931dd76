package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// arSpecials are the float32 payloads the replay must carry bit for
// bit: signed zeros, subnormals, infinities, quiet and signalling NaNs.
var arSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x807fffff, 0x00400000, // subnormals
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00001, 0x7f800001, // NaNs (quiet, negative quiet, signalling)
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
}

// arValues draws n contributions: mostly ordinary values, with the
// special payloads mixed in at the given per-mille rate.
func arValues(rng *rand.Rand, n, special int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(1000) < special {
			v[i] = math.Float32frombits(arSpecials[rng.Intn(len(arSpecials))])
		} else {
			v[i] = float32(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20)))
		}
	}
	return v
}

// arTwin is one engine's machine for the replay-vs-simulation checks: a
// compiled 7-point program (exchange colors 0..3) sharing the fabric
// with an AllReduce on the six colors after it, as the star solver
// lays them out.
type arTwin struct {
	m    *wse.Machine
	prog *stencilc.Program3D
	ar   *AllReduce
}

func newARTwin(t *testing.T, w, h int, eng wse.Engine, src []fp16.Float16) *arTwin {
	t.Helper()
	cfg := wse.CS1(w, h)
	cfg.Engine = eng
	m := wse.New(cfg)
	mesh := stencil.Mesh{NX: w, NY: h, NZ: 4}
	norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
	prog, err := stencilc.Compile3D(m, stencilc.Spec7Point(), stencil.NewOpStarHalf(norm), 0, 0, 0)
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	for i := 0; i < prog.Tiles(); i++ {
		copy(prog.Iterate(i), src[i*mesh.NZ:(i+1)*mesh.NZ])
	}
	ar, err := NewAllReduce(m, NumStencil2DColors)
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	return &arTwin{m: m, prog: prog, ar: ar}
}

// checkAllReduceReplay runs the same sequence — applies stencil
// applications, then reductions AllReduces of fresh values — on a
// sequential and a fast-forward machine and requires the replayed
// reductions to match the simulated ones on every observable: sum and
// broadcast bits, cycles, and the machine fingerprint.
func checkAllReduceReplay(t *testing.T, w, h, applies, reductions int, seed int64, special int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := make([]fp16.Float16, w*h*4)
	for i := range src {
		src[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	seq := newARTwin(t, w, h, wse.EngineSequential, src)
	defer seq.m.Close()
	ff := newARTwin(t, w, h, wse.EngineFastForward, src)
	defer ff.m.Close()
	for k := 0; k < applies; k++ {
		for _, tw := range []*arTwin{seq, ff} {
			if _, err := tw.prog.Run(1 << 20); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 0; k < reductions; k++ {
		vals := arValues(rng, w*h, special)
		want, err := seq.ar.Run(vals, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ff.ar.Run(vals, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(got.Sum) != math.Float32bits(want.Sum) {
			t.Fatalf("%dx%d reduction %d: sum bits %#08x, simulated %#08x",
				w, h, k, math.Float32bits(got.Sum), math.Float32bits(want.Sum))
		}
		for i := range want.PerTile {
			if math.Float32bits(got.PerTile[i]) != math.Float32bits(want.PerTile[i]) {
				t.Fatalf("%dx%d reduction %d: tile %d holds %#08x, simulated %#08x",
					w, h, k, i, math.Float32bits(got.PerTile[i]), math.Float32bits(want.PerTile[i]))
			}
		}
		if got.Cycles != want.Cycles {
			t.Fatalf("%dx%d reduction %d: %d cycles, simulated %d", w, h, k, got.Cycles, want.Cycles)
		}
		if fs, ff := seq.m.Fingerprint(), ff.m.Fingerprint(); fs != ff {
			t.Fatalf("%dx%d reduction %d: fingerprint %#x, simulated %#x", w, h, k, ff, fs)
		}
		// Hot marks are architectural (they charge the next cycle's
		// rotations) but outside the fingerprint: compare them directly.
		if hs, hf := fmt.Sprint(seq.m.Fab.CaptureState().Hot), fmt.Sprint(ff.m.Fab.CaptureState().Hot); hs != hf {
			t.Fatalf("%dx%d reduction %d: hot set %s, simulated %s", w, h, k, hf, hs)
		}
	}
	if r, s := ff.ar.Runs(); r != reductions || s != 0 {
		t.Fatalf("%dx%d: fast-forward machine replayed %d and simulated %d of %d reductions", w, h, r, s, reductions)
	}
	if r, s := seq.ar.Runs(); r != 0 || s != reductions {
		t.Fatalf("%dx%d: sequential machine replayed %d and simulated %d of %d reductions", w, h, r, s, reductions)
	}
}

// FuzzAllReduceReplay fuzzes the AllReduce replay's contract: on a
// W×H fabric (1–24 each), after 0–3 compiled 7-point applications have
// left non-trivial router rotations and a hot set behind, one or two
// reductions of float32 values — including ±0, subnormals, ±Inf and
// NaNs — replayed under EngineFastForward must match the sequential
// engine's cycle simulation on the sum's bits, every tile's broadcast
// copy, the cycle count and Machine.Fingerprint. Seed corpus in
// testdata/fuzz/FuzzAllReduceReplay; CI runs this in fuzz-smoke.
func FuzzAllReduceReplay(f *testing.F) {
	f.Add(int64(1), uint16(0x0707), uint8(0), uint8(10))
	f.Add(int64(2), uint16(0x0605), uint8(1), uint8(200))
	f.Add(int64(3), uint16(0x0c09), uint8(2), uint8(0))
	f.Add(int64(4), uint16(0x0101), uint8(3), uint8(255))
	f.Add(int64(5), uint16(0x1718), uint8(7), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, dims uint16, plan uint8, special uint8) {
		w := int(dims&0xff)%24 + 1
		h := int(dims>>8)%24 + 1
		applies := int(plan) % 4
		reductions := int(plan>>2)%2 + 1
		checkAllReduceReplay(t, w, h, applies, reductions, seed, int(special))
	})
}

// TestAllReduceReplayShapes sweeps every fabric up to 9×9 (plus the
// wider odd shapes whose single central line backs its chains up)
// through the replay check, with and without prior stencil traffic.
func TestAllReduceReplayShapes(t *testing.T) {
	for w := 1; w <= 9; w++ {
		for h := 1; h <= 9; h++ {
			checkAllReduceReplay(t, w, h, (w+h)%3, 2, int64(w*31+h), 50)
		}
	}
	for _, d := range [][2]int{{15, 4}, {4, 17}, {21, 19}, {24, 23}} {
		checkAllReduceReplay(t, d[0], d[1], 1, 2, int64(d[0]*d[1]), 5)
	}
}
