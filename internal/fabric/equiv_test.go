package fabric

import (
	"fmt"
	"math/rand"
	"testing"
)

// trafficFabric builds a fabric saturated with the canonical
// BuildFlows pattern (four directional flows on colors 0–3), plus
// multicast on color 4: row 0 forwards east while also delivering to
// each core's ramp.
func trafficFabric(w, h int, st Stepper) *Fabric {
	f := New(Config{W: w, H: h, Stepper: st})
	BuildFlows(f)
	// Multicast row: forward east and deliver locally at every hop.
	f.SetRoute(Coord{0, 0}, Ramp, 4, Mask(East, Ramp))
	for x := 1; x < w-1; x++ {
		f.SetRoute(Coord{x, 0}, West, 4, Mask(East, Ramp))
	}
	f.SetRoute(Coord{w - 1, 0}, West, 4, Mask(Ramp))
	return f
}

// driveCycle injects pseudo-random traffic at the flow sources and
// drains the sinks, returning the drained words in deterministic order.
// Both fabrics of an equivalence pair run this with identically seeded
// generators; because Send/Recv outcomes depend only on fabric state,
// the generators stay in lockstep as long as the fabrics agree.
func driveCycle(f *Fabric, rng *rand.Rand) []Word {
	w, h := f.W, f.H
	for y := 0; y < h; y++ {
		if rng.Intn(3) > 0 {
			f.Send(Coord{0, y}, Word{Color: 0, Bits: rng.Uint32()})
		}
		if rng.Intn(3) > 0 {
			f.Send(Coord{w - 1, y}, Word{Color: 1, Bits: rng.Uint32()})
		}
	}
	for x := 0; x < w; x++ {
		if rng.Intn(3) > 0 {
			f.Send(Coord{x, 0}, Word{Color: 2, Bits: rng.Uint32()})
		}
		if rng.Intn(3) > 0 {
			f.Send(Coord{x, h - 1}, Word{Color: 3, Bits: rng.Uint32()})
		}
	}
	if rng.Intn(2) == 0 {
		f.Send(Coord{0, 0}, Word{Color: 4, Bits: rng.Uint32()})
	}
	f.Step()
	var got []Word
	for y := 0; y < h; y++ {
		if wd, ok := f.Recv(Coord{w - 1, y}, 0); ok {
			got = append(got, wd)
		}
		if wd, ok := f.Recv(Coord{0, y}, 1); ok {
			got = append(got, wd)
		}
	}
	for x := 0; x < w; x++ {
		if wd, ok := f.Recv(Coord{x, h - 1}, 2); ok {
			got = append(got, wd)
		}
		if wd, ok := f.Recv(Coord{x, 0}, 3); ok {
			got = append(got, wd)
		}
		if wd, ok := f.Recv(Coord{x, 0}, 4); ok {
			got = append(got, wd)
		}
	}
	return got
}

// TestShardedMatchesSequential is the golden equivalence test of the
// determinism contract: a randomized routed fabric stepped by Sequential
// and by Sharded(workers) must agree on the complete architectural state
// — every router queue and receive buffer, word for word — and on the
// words delivered to cores, every single cycle.
func TestShardedMatchesSequential(t *testing.T) {
	cases := []struct {
		w, h, workers int
	}{
		{8, 8, 2},
		{8, 8, 8},
		{16, 16, 4},
		{16, 16, 7}, // uneven shard sizes
		{5, 9, 3},   // non-square, workers not dividing rows
		{12, 4, 16}, // more workers than rows
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%dx%d-w%d", tc.w, tc.h, tc.workers), func(t *testing.T) {
			t.Parallel()
			seq := trafficFabric(tc.w, tc.h, Sequential())
			st := Sharded(tc.workers)
			// Small fabrics would otherwise always take the quiet-cycle
			// inline fallback; force the concurrent path under test.
			st.(*engine).forceParallel = true
			par := trafficFabric(tc.w, tc.h, st)
			rngA := rand.New(rand.NewSource(42))
			rngB := rand.New(rand.NewSource(42))
			cycles := 400
			for cyc := 0; cyc < cycles; cyc++ {
				a := driveCycle(seq, rngA)
				b := driveCycle(par, rngB)
				if len(a) != len(b) {
					t.Fatalf("cycle %d: delivered %d words sequentially, %d sharded", cyc, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("cycle %d: delivery %d differs: seq %+v sharded %+v", cyc, i, a[i], b[i])
					}
				}
				if fa, fb := seq.Fingerprint(), par.Fingerprint(); fa != fb {
					t.Fatalf("cycle %d: state fingerprints diverge: seq %#x sharded %#x", cyc, fa, fb)
				}
				if seq.Moves() != par.Moves() {
					t.Fatalf("cycle %d: moves diverge: seq %d sharded %d", cyc, seq.Moves(), par.Moves())
				}
			}
			// Spot-check a few explicit queue occupancies beyond the hash.
			for y := 0; y < tc.h; y++ {
				at := Coord{tc.w / 2, y}
				if a, b := seq.RouterQueueLen(at, West, 0), par.RouterQueueLen(at, West, 0); a != b {
					t.Fatalf("queue occupancy at %v differs: seq %d sharded %d", at, a, b)
				}
			}
		})
	}
}

// TestShardedDrain checks the engines agree through a full drain to
// quiescence, not just under continuous injection.
func TestShardedDrain(t *testing.T) {
	seq := trafficFabric(16, 16, Sequential())
	st := Sharded(8)
	st.(*engine).forceParallel = true
	par := trafficFabric(16, 16, st)
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	for cyc := 0; cyc < 64; cyc++ {
		driveCycle(seq, rngA)
		driveCycle(par, rngB)
	}
	// Stop injecting; drain both, popping sinks so backpressure clears.
	for cyc := 0; cyc < 4096 && !(seq.Quiescent() && par.Quiescent()); cyc++ {
		seq.Step()
		par.Step()
		for y := 0; y < 16; y++ {
			seq.Recv(Coord{15, y}, 0)
			par.Recv(Coord{15, y}, 0)
			seq.Recv(Coord{0, y}, 1)
			par.Recv(Coord{0, y}, 1)
		}
		for x := 0; x < 16; x++ {
			seq.Recv(Coord{x, 15}, 2)
			par.Recv(Coord{x, 15}, 2)
			seq.Recv(Coord{x, 0}, 3)
			par.Recv(Coord{x, 0}, 3)
			seq.Recv(Coord{x, 0}, 4)
			par.Recv(Coord{x, 0}, 4)
		}
		if fa, fb := seq.Fingerprint(), par.Fingerprint(); fa != fb {
			t.Fatalf("drain cycle %d: fingerprints diverge", cyc)
		}
	}
	if !seq.Quiescent() || !par.Quiescent() {
		t.Fatalf("fabrics did not drain: seq=%v sharded=%v", seq.Quiescent(), par.Quiescent())
	}
}

// TestStepperRebindPanics pins the single-binding contract.
func TestStepperRebindPanics(t *testing.T) {
	st := Sharded(4)
	New(Config{W: 4, H: 4, Stepper: st})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rebinding a Stepper")
		}
	}()
	New(Config{W: 4, H: 4, Stepper: st})
}

// TestStepperNames pins the engine names used in benchmark sub-tests.
func TestStepperNames(t *testing.T) {
	if got := Sequential().Name(); got != "seq" {
		t.Errorf("Sequential().Name() = %q", got)
	}
	if got := Sharded(8).Name(); got != "sharded-8" {
		t.Errorf("Sharded(8).Name() = %q", got)
	}
	f := New(Config{W: 2, H: 2})
	if f.StepperName() != "seq" {
		t.Errorf("default stepper = %q, want seq", f.StepperName())
	}
	if n := len(f.ShardRanges()); n != 1 {
		t.Errorf("default shard count = %d, want 1", n)
	}
}

// scanQuiescent is the reference definition of Quiescent: no word in
// any router input queue, by a scan of every queue.
func scanQuiescent(f *Fabric) bool {
	for i := range f.tables {
		for in := Port(0); in < NumPorts; in++ {
			for c := 0; c < MaxColors; c++ {
				if q := f.tables[i].queues[in][c]; q != nil && !q.empty() {
					return false
				}
			}
		}
	}
	return true
}

// TestQuiescentCounter pins the in-flight word counters behind the
// O(shards) Quiescent against the full queue scan every cycle: through
// saturated traffic, the drain back to idle, on the sequential and the
// (forced-concurrent) sharded engine, and across a snapshot restore
// taken mid-flight into a fabric with different in-flight state.
func TestQuiescentCounter(t *testing.T) {
	const w, h = 9, 7
	for _, name := range []string{"seq", "sharded"} {
		st := Sequential()
		if name == "sharded" {
			st = Sharded(3)
			st.(*engine).forceParallel = true
		}
		f := trafficFabric(w, h, st)
		defer f.Close()
		check := func(when string) {
			t.Helper()
			if got, want := f.Quiescent(), scanQuiescent(f); got != want {
				t.Fatalf("%s %s (cycle %d): Quiescent %v, queue scan %v", name, when, f.Cycle(), got, want)
			}
		}
		check("fresh")
		rng := rand.New(rand.NewSource(5))
		var mid *State
		for cyc := 0; cyc < 60; cyc++ {
			driveCycle(f, rng)
			check("loaded")
			if cyc == 30 {
				mid = f.CaptureState()
			}
		}
		if f.Quiescent() {
			t.Fatalf("%s: saturated fabric reports quiescent", name)
		}
		drained := false
		for cyc := 0; cyc < 4*(w+h) && !drained; cyc++ {
			for y := 0; y < h; y++ {
				f.Recv(Coord{w - 1, y}, 0)
				f.Recv(Coord{0, y}, 1)
			}
			for x := 0; x < w; x++ {
				f.Recv(Coord{x, h - 1}, 2)
				f.Recv(Coord{x, 0}, 3)
				f.Recv(Coord{x, 0}, 4)
			}
			f.Step()
			check("draining")
			drained = f.Quiescent()
		}
		if !drained {
			t.Fatalf("%s: fabric did not drain", name)
		}
		if err := f.RestoreState(mid); err != nil {
			t.Fatal(err)
		}
		check("restored mid-flight")
		if f.Quiescent() {
			t.Fatalf("%s: mid-flight restore reports quiescent", name)
		}
		driveCycle(f, rng)
		check("stepped after restore")
	}
}
