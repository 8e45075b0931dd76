package kernels

import (
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/perfmodel"
	"repro/internal/wse"
)

// AllReduce is the wafer-wide scalar reduction of Figure 6. Every core
// contributes one float32; the sum is formed by reducing in parallel
// along fabric rows into the two central columns, then along those
// columns into the four central cores, then 4:1 into a single root, and
// broadcast back over the reverse tree. Reduction arithmetic is float32
// ("we do the AllReduce at 32-bit precision"), and a core can absorb at
// most one fabric word per cycle, which is why the paper uses a *pair*
// of central rows/columns — each center receives a single directional
// stream at full link rate.
//
// The measured latency is the paper's headline: about 10% more cycles
// than the fabric diameter.
type AllReduce struct {
	M *wse.Machine
	F *fabric.Fabric

	blue, green, c4a, c4b, c4c, red fabric.Color

	cx0, cx1, cy0, cy1 int

	tiles []*arTile

	// Event-driven actor scheduling: tiles with actionable work sit on a
	// per-engine-shard pending list and park otherwise (e.g. while
	// waiting for reduction operands or the broadcast); the fabric's
	// rx-delivery wake re-lists them when words land at their ramp. This
	// is what makes the paper-scale 602×595 reduction cheap to simulate:
	// during the long serialization phases almost every tile is parked.
	pending   [][]int32
	queued    []bool
	remaining int
	start     int64 // fabric cycle at Begin, for Result's latency

	// replay is the exact word-granular model Run jumps through under
	// EngineFastForward (built on first use); replayed and simulated
	// count the Runs that took the jump and the ones that stepped.
	replay              *perfmodel.AllReduceReplay
	replayed, simulated int
}

type arTile struct {
	x, y                 int
	val, acc             float32
	rowExpect, rowGot    int
	colExpect, colGot    int
	quadExpect, quadGot  int
	sentRow, sentCol     bool
	sentQuad, sentRed    bool
	rowDone, colDone     bool
	haveResult           bool
	result               float32
	resultCycle          int64
	isRowCtr, isColCtr   bool
	isRoot               bool
	greenTarget, quadCol fabric.Color
}

// NewAllReduce builds the reduction/broadcast routing on m's fabric using
// six colors starting at base. Call once; Run may be invoked repeatedly.
func NewAllReduce(m *wse.Machine, base fabric.Color) (*AllReduce, error) {
	f := m.Fab
	if int(base)+6 > fabric.MaxColors {
		return nil, fmt.Errorf("kernels: allreduce needs 6 colors starting at %d", base)
	}
	ar := &AllReduce{
		M: m, F: f,
		blue: base, green: base + 1, c4a: base + 2, c4b: base + 3, c4c: base + 4, red: base + 5,
	}
	w, h := f.W, f.H
	ar.cx0, ar.cx1 = (w-1)/2, w/2
	ar.cy0, ar.cy1 = (h-1)/2, h/2

	// ---- Blue: row reduction toward the two central columns.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			at := fabric.Coord{X: x, Y: y}
			switch {
			case x < ar.cx0:
				ar.routeChain(at, fabric.East, ar.blue, x > 0)
			case x > ar.cx1:
				ar.routeChain(at, fabric.West, ar.blue, x < w-1)
			case x == ar.cx0 && ar.cx0 > 0:
				f.SetRoute(at, fabric.West, ar.blue, fabric.Mask(fabric.Ramp))
			}
			if x == ar.cx1 && ar.cx1 < w-1 {
				f.SetRoute(at, fabric.East, ar.blue, fabric.Mask(fabric.Ramp))
			}
		}
	}

	// ---- Green: column reduction within the central columns.
	for _, cx := range ar.centerCols() {
		for y := 0; y < h; y++ {
			at := fabric.Coord{X: cx, Y: y}
			switch {
			case y < ar.cy0:
				ar.routeChain(at, fabric.South, ar.green, y > 0)
			case y > ar.cy1:
				ar.routeChain(at, fabric.North, ar.green, y < h-1)
			case y == ar.cy0 && ar.cy0 > 0:
				f.SetRoute(at, fabric.North, ar.green, fabric.Mask(fabric.Ramp))
			}
			if y == ar.cy1 && ar.cy1 < h-1 {
				f.SetRoute(at, fabric.South, ar.green, fabric.Mask(fabric.Ramp))
			}
		}
	}

	// ---- 4:1 reduction into the root (cx0, cy0).
	root := fabric.Coord{X: ar.cx0, Y: ar.cy0}
	if ar.cx1 != ar.cx0 {
		f.SetRoute(fabric.Coord{X: ar.cx1, Y: ar.cy0}, fabric.Ramp, ar.c4a, fabric.Mask(fabric.West))
		f.SetRoute(root, fabric.East, ar.c4a, fabric.Mask(fabric.Ramp))
	}
	if ar.cy1 != ar.cy0 {
		f.SetRoute(fabric.Coord{X: ar.cx0, Y: ar.cy1}, fabric.Ramp, ar.c4b, fabric.Mask(fabric.North))
		f.SetRoute(root, fabric.South, ar.c4b, fabric.Mask(fabric.Ramp))
	}
	if ar.cx1 != ar.cx0 && ar.cy1 != ar.cy0 {
		f.SetRoute(fabric.Coord{X: ar.cx1, Y: ar.cy1}, fabric.Ramp, ar.c4c, fabric.Mask(fabric.West))
		f.SetRoute(fabric.Coord{X: ar.cx0, Y: ar.cy1}, fabric.East, ar.c4c, fabric.Mask(fabric.North))
		f.SetRoute(root, fabric.South, ar.c4c, fabric.Mask(fabric.Ramp))
	}

	// ---- Red: broadcast, reverse of the reduction tree.
	rootOuts := fabric.Mask(fabric.Ramp)
	if ar.cy0 > 0 {
		rootOuts |= fabric.Mask(fabric.North)
	}
	if ar.cy0 < h-1 {
		rootOuts |= fabric.Mask(fabric.South)
	}
	if ar.cx0 > 0 {
		rootOuts |= fabric.Mask(fabric.West) // left half of the root row
	}
	if ar.cx1 != ar.cx0 || ar.cx1 < w-1 {
		// Even width: hand off to column cx1. Odd width: the root's own
		// row continues eastward directly.
		rootOuts |= fabric.Mask(fabric.East)
	}
	f.SetRoute(root, fabric.Ramp, ar.red, rootOuts)
	for _, cx := range ar.centerCols() {
		for y := 0; y < h; y++ {
			at := fabric.Coord{X: cx, Y: y}
			isHandOff := cx == ar.cx1 && ar.cx1 != ar.cx0 && y == ar.cy0
			if y == ar.cy0 && !isHandOff {
				continue // the root itself
			}
			var in fabric.Port
			var cont fabric.Port
			contOK := false
			if isHandOff {
				in = fabric.West
			} else if y < ar.cy0 {
				in = fabric.South // word moving north arrives on the south port
				if y > 0 {
					cont, contOK = fabric.North, true
				}
			} else {
				in = fabric.North
				if y < h-1 {
					cont, contOK = fabric.South, true
				}
			}
			outs := fabric.Mask(fabric.Ramp)
			if contOK {
				outs |= fabric.Mask(cont)
			}
			if isHandOff {
				if ar.cy0 > 0 {
					outs |= fabric.Mask(fabric.North)
				}
				if ar.cy0 < h-1 {
					outs |= fabric.Mask(fabric.South)
				}
			}
			// Row broadcast away from the central columns.
			if cx == ar.cx0 && cx > 0 {
				outs |= fabric.Mask(fabric.West)
			}
			if cx == ar.cx1 && cx < w-1 {
				outs |= fabric.Mask(fabric.East)
			}
			f.SetRoute(at, in, ar.red, outs)
		}
	}
	// Row tails beyond the central columns.
	for y := 0; y < h; y++ {
		for x := 0; x < ar.cx0; x++ {
			outs := fabric.Mask(fabric.Ramp)
			if x > 0 {
				outs |= fabric.Mask(fabric.West)
			}
			f.SetRoute(fabric.Coord{X: x, Y: y}, fabric.East, ar.red, outs)
		}
		for x := ar.cx1 + 1; x < w; x++ {
			outs := fabric.Mask(fabric.Ramp)
			if x < w-1 {
				outs |= fabric.Mask(fabric.East)
			}
			f.SetRoute(fabric.Coord{X: x, Y: y}, fabric.West, ar.red, outs)
		}
	}

	// ---- Per-tile actor state.
	ar.tiles = make([]*arTile, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			t := &arTile{x: x, y: y}
			t.isRowCtr = x == ar.cx0 || x == ar.cx1
			if t.isRowCtr {
				if x == ar.cx0 {
					t.rowExpect = ar.cx0 // tiles strictly left
				} else {
					t.rowExpect = w - 1 - ar.cx1
				}
				if ar.cx0 == ar.cx1 {
					t.rowExpect = ar.cx0 + (w - 1 - ar.cx1) // single column takes both sides
				}
				t.isColCtr = y == ar.cy0 || y == ar.cy1
				if t.isColCtr {
					if y == ar.cy0 {
						t.colExpect = ar.cy0
					} else {
						t.colExpect = h - 1 - ar.cy1
					}
					if ar.cy0 == ar.cy1 {
						t.colExpect = ar.cy0 + (h - 1 - ar.cy1)
					}
				}
			}
			t.isRoot = x == ar.cx0 && y == ar.cy0
			if t.isRoot {
				if ar.cx1 != ar.cx0 {
					t.quadExpect++
				}
				if ar.cy1 != ar.cy0 {
					t.quadExpect++
				}
				if ar.cx1 != ar.cx0 && ar.cy1 != ar.cy0 {
					t.quadExpect++
				}
			}
			// Which color this center uses toward the root.
			switch {
			case x == ar.cx1 && y == ar.cy0 && ar.cx1 != ar.cx0:
				t.quadCol = ar.c4a
			case x == ar.cx0 && y == ar.cy1 && ar.cy1 != ar.cy0:
				t.quadCol = ar.c4b
			case x == ar.cx1 && y == ar.cy1 && ar.cx1 != ar.cx0 && ar.cy1 != ar.cy0:
				t.quadCol = ar.c4c
			}
			ar.tiles[y*w+x] = t
		}
	}
	ar.pending = make([][]int32, len(f.ShardRanges()))
	ar.queued = make([]bool, w*h)
	// Any word landing at a tile's ramp on one of the six AllReduce
	// colors (reduction operand, quad word, broadcast result) re-lists
	// the tile; deliveries for other subsystems sharing the fabric are
	// ignored. The callback runs on the shard that owns the tile, so the
	// per-shard append is race-free.
	f.OnRxDelivery(func(ti int, c fabric.Color) {
		if c >= ar.blue && c <= ar.red {
			ar.wakeTile(ti)
		}
	})
	return ar, nil
}

// wakeTile puts a tile on its shard's pending list (idempotent).
func (ar *AllReduce) wakeTile(ti int) {
	if !ar.queued[ti] {
		ar.queued[ti] = true
		s := ar.F.ShardOf(ti)
		ar.pending[s] = append(ar.pending[s], int32(ti))
	}
}

func (ar *AllReduce) centerCols() []int {
	if ar.cx0 == ar.cx1 {
		return []int{ar.cx0}
	}
	return []int{ar.cx0, ar.cx1}
}

// routeChain configures a pass-through route at `at`: inject own (Ramp)
// and, when hasUpstream, forward the neighbour chain arriving from the
// opposite direction.
func (ar *AllReduce) routeChain(at fabric.Coord, out fabric.Port, c fabric.Color, hasUpstream bool) {
	ar.F.SetRoute(at, fabric.Ramp, c, fabric.Mask(out))
	if hasUpstream {
		ar.F.SetRoute(at, out.Opposite(), c, fabric.Mask(out))
	}
}

// Result carries the outcome of one AllReduce.
type AllReduceResult struct {
	Sum       float32
	Cycles    int64 // until the last core received the result
	PerTile   []float32
	RootValue float32
}

// Run performs one AllReduce over values (one float32 per tile, fabric
// row-major). It returns the broadcast sum and the cycle count from start
// to the last delivery.
//
// Under EngineFastForward, a reduction that starts from a quiescent
// fabric with empty AllReduce receive buffers is replayed by
// perfmodel.AllReduceReplay instead of stepped: the same cycles, word
// moves, router rotations, hot set and tree-order sum, applied to the
// fabric in one jump (see replayRun). Every other case cycle-simulates.
//
// When simulating, each cycle only pending tiles step; a tile parks when its next move
// waits on a word that has not arrived and is re-listed by the fabric's
// rx-delivery wake. Tile state is tile-local and each tile touches only
// its own ramp, so the stepping order — and therefore the engine choice
// — does not change the simulated state.
func (ar *AllReduce) Run(values []float32, maxCycles int64) (AllReduceResult, error) {
	if err := ar.Begin(values); err != nil {
		return AllReduceResult{}, err
	}
	if ar.replayRun(values, maxCycles) {
		ar.replayed++
		return ar.Result(), nil
	}
	ar.simulated++
	for cyc := int64(0); cyc < maxCycles; cyc++ {
		if ar.Tick() {
			return ar.Result(), nil
		}
		ar.F.Step()
	}
	return AllReduceResult{}, fmt.Errorf("kernels: allreduce did not finish in %d cycles", maxCycles)
}

// Runs reports how many Runs were replayed analytically and how many
// were cycle-simulated since the AllReduce was built.
func (ar *AllReduce) Runs() (replayed, simulated int) { return ar.replayed, ar.simulated }

// replayEligible reports whether a reduction starting now is exactly the
// phase perfmodel.AllReduceReplay models: the fast-forward engine, the
// default router queue depth, no words in flight, nothing waiting in any
// AllReduce receive buffer, and no core listening on the AllReduce
// colors (the replay fires no rx-delivery wakes).
func (ar *AllReduce) replayEligible() bool {
	m := ar.M
	if !m.FastForwardEnabled() || (m.Cfg.QueueDepth > 0 && m.Cfg.QueueDepth != 4) {
		return false
	}
	return ar.F.Quiescent() && ar.F.RxEmpty(ar.blue, ar.red) && !m.SubscribesAny(ar.blue, ar.red)
}

// replayRun tries to complete the reduction Begin just armed without
// cycle simulation. On success the fabric holds exactly the state a
// stepped Run ends in (fabric.ApplyReplay: cycles, moves, rotations,
// hot set; every queue drained) and the host actors are left as a
// finished Run leaves them, so Result, a later Begin and snapshots see
// no difference. It returns false, having changed nothing, when the
// reduction is ineligible or would exceed maxCycles.
func (ar *AllReduce) replayRun(values []float32, maxCycles int64) bool {
	if !ar.replayEligible() {
		return false
	}
	f := ar.F
	if ar.replay == nil {
		ar.replay = perfmodel.NewAllReduceReplay(f.W, f.H)
	}
	// Run's loop ticks on cycles 0..maxCycles-1 and finishes on the tick
	// after the last delivery.
	if ar.replay.Cycles() >= maxCycles {
		return false
	}
	res := ar.replay.Run(perfmodel.AllReduceSeed{
		Values: values,
		RR:     f.RR,
		Hot:    f.HotTiles(),
		Slots:  ar.slots,
	})
	f.ApplyReplay(res.Cycles, res.Moves, res.RR, res.Hot)

	for i, t := range ar.tiles {
		t.acc = res.Acc[i]
		t.rowGot, t.colGot, t.quadGot = t.rowExpect, t.colExpect, t.quadExpect
		t.sentRow = !t.isRowCtr
		t.sentCol = t.isRowCtr && !t.isColCtr
		t.sentQuad = t.isColCtr && !t.isRoot
		t.sentRed = t.isRoot
		t.rowDone = true
		t.colDone = t.isColCtr
		t.haveResult = true
		t.result = res.Sum
		t.resultCycle = ar.start + res.Broadcast + 1 + int64(iabs(t.x-ar.cx0)+iabs(t.y-ar.cy0))
	}
	for s := range ar.pending {
		ar.pending[s] = ar.pending[s][:0]
	}
	for i := range ar.queued {
		ar.queued[i] = false
	}
	ar.remaining = 0
	return true
}

// slots maps router ti's live entry layout onto the replay's contended
// AllReduce legs.
func (ar *AllReduce) slots(ti int) perfmodel.ARSlots {
	layout := ar.F.EntryLayout(ti)
	sl := perfmodel.ARSlots{N: len(layout)}
	for g := range sl.Slot {
		sl.Slot[g] = -1
	}
	legs := []struct {
		key fabric.RouteKey
		leg perfmodel.ARLeg
	}{
		{fabric.RouteKey{In: fabric.West, C: ar.blue}, perfmodel.ARRowWest},
		{fabric.RouteKey{In: fabric.East, C: ar.blue}, perfmodel.ARRowEast},
		{fabric.RouteKey{In: fabric.North, C: ar.green}, perfmodel.ARColNorth},
		{fabric.RouteKey{In: fabric.South, C: ar.green}, perfmodel.ARColSouth},
		{fabric.RouteKey{In: fabric.East, C: ar.c4a}, perfmodel.ARQuadA},
		{fabric.RouteKey{In: fabric.South, C: ar.c4b}, perfmodel.ARQuadB},
		{fabric.RouteKey{In: fabric.South, C: ar.c4c}, perfmodel.ARQuadC},
	}
	for j, k := range layout {
		for _, l := range legs {
			if k == l.key {
				sl.Slot[l.leg] = j
			}
		}
	}
	return sl
}

func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Begin resets the host actors for a new reduction of values, without
// stepping the fabric. Run is Begin followed by a Tick/Step loop; the
// difftest lockstep harness drives the same loop with a fingerprint
// comparison between cycles.
func (ar *AllReduce) Begin(values []float32) error {
	w, h := ar.F.W, ar.F.H
	if len(values) != w*h {
		return fmt.Errorf("kernels: allreduce needs %d values, got %d", w*h, len(values))
	}
	for i, t := range ar.tiles {
		t.val = values[i]
		t.acc = values[i]
		t.rowGot, t.colGot, t.quadGot = 0, 0, 0
		t.sentRow, t.sentCol, t.sentQuad, t.sentRed = false, false, false, false
		t.rowDone = !t.isRowCtr || t.rowExpect == 0
		t.colDone = false
		t.haveResult = false
		t.result = 0
	}
	// Every tile has an injection to attempt on the first cycle.
	for s := range ar.pending {
		ar.pending[s] = ar.pending[s][:0]
	}
	for i := range ar.queued {
		ar.queued[i] = false
	}
	for i := range ar.tiles {
		ar.wakeTile(i)
	}
	ar.remaining = len(ar.tiles)
	ar.start = ar.F.Cycle()
	return nil
}

// Tick runs every actionable host actor once for the current cycle and
// reports whether all tiles hold the broadcast result. The caller steps
// the fabric between Ticks (Run does; so does the difftest harness, via
// the owning machine so cycle counts stay aligned with core stepping).
func (ar *AllReduce) Tick() bool {
	for s := range ar.pending {
		list := ar.pending[s]
		keep := list[:0]
		for _, ti := range list {
			t := ar.tiles[ti]
			had := t.haveResult
			ar.stepTile(t)
			if t.haveResult && !had {
				ar.remaining--
			}
			if ar.tileActionable(t) {
				keep = append(keep, ti)
			} else {
				ar.queued[ti] = false
			}
		}
		ar.pending[s] = keep
	}
	return ar.remaining == 0
}

// Result assembles the finished reduction (valid once Tick returned
// true): the root sum, latency in cycles since Begin, and every tile's
// broadcast copy.
func (ar *AllReduce) Result() AllReduceResult {
	res := AllReduceResult{
		Sum:     ar.tiles[ar.cy0*ar.F.W+ar.cx0].result,
		Cycles:  ar.F.Cycle() - ar.start,
		PerTile: make([]float32, len(ar.tiles)),
	}
	for i, t := range ar.tiles {
		res.PerTile[i] = t.result
	}
	return res
}

// tileActionable reports whether the tile can make progress without a
// new word arriving: a send to attempt (or retry under backpressure),
// or words already waiting at its ramp for a phase it is in. Everything
// else parks; the rx-delivery wake covers future arrivals.
func (ar *AllReduce) tileActionable(t *arTile) bool {
	at := fabric.Coord{X: t.x, Y: t.y}
	if !t.isRowCtr {
		if !t.sentRow {
			return true
		}
	} else {
		if t.rowGot < t.rowExpect && ar.F.RxLen(at, ar.blue) > 0 {
			return true
		}
		if t.rowDone && !t.isColCtr && !t.sentCol {
			return true
		}
		if t.isColCtr {
			if t.rowDone && t.colGot < t.colExpect && ar.F.RxLen(at, ar.green) > 0 {
				return true
			}
			if t.colDone && !t.isRoot && !t.sentQuad {
				return true
			}
			if t.isRoot {
				if t.colDone && t.quadGot < t.quadExpect &&
					(ar.F.RxLen(at, ar.c4a) > 0 || ar.F.RxLen(at, ar.c4b) > 0 || ar.F.RxLen(at, ar.c4c) > 0) {
					return true
				}
				if t.colDone && t.quadGot == t.quadExpect && !t.sentRed {
					return true
				}
			}
		}
	}
	if !t.haveResult && ar.F.RxLen(at, ar.red) > 0 {
		return true
	}
	return false
}

// stepTile runs one cycle of a tile's reduction state machine. A tile
// absorbs at most two words per cycle (the core "can add two 32-bit
// quantities per cycle but can receive only one from the fabric" — the
// fabric ramp already limits delivery to one word per cycle, so allowing
// two pops per cycle only drains backlog).
func (ar *AllReduce) stepTile(t *arTile) {
	at := fabric.Coord{X: t.x, Y: t.y}
	pops := 0

	// Row phase: non-center tiles send once; centers accumulate.
	if !t.isRowCtr {
		if !t.sentRow {
			if ar.F.Send(at, fabric.WordF32(ar.blue, t.val)) {
				t.sentRow = true
			}
		}
	} else {
		for pops < 2 && t.rowGot < t.rowExpect {
			w, ok := ar.F.Recv(at, ar.blue)
			if !ok {
				break
			}
			t.acc = perfmodel.ARAccumulate(t.acc, w.F32())
			t.rowGot++
			pops++
		}
		if t.rowGot == t.rowExpect {
			t.rowDone = true
		}
		// Column phase.
		if t.rowDone && !t.isColCtr && !t.sentCol {
			if ar.F.Send(at, fabric.WordF32(ar.green, t.acc)) {
				t.sentCol = true
			}
		}
		if t.isColCtr {
			for pops < 2 && t.colGot < t.colExpect && t.rowDone {
				w, ok := ar.F.Recv(at, ar.green)
				if !ok {
					break
				}
				t.acc = perfmodel.ARAccumulate(t.acc, w.F32())
				t.colGot++
				pops++
			}
			if t.rowDone && t.colGot == t.colExpect {
				t.colDone = true
			}
			_ = pops
			// Quad phase: the three non-root centers forward to the root.
			if t.colDone && !t.isRoot && !t.sentQuad {
				if ar.F.Send(at, fabric.WordF32(t.quadCol, t.acc)) {
					t.sentQuad = true
				}
			}
			if t.isRoot && t.colDone {
				for pops < 2 && t.quadGot < t.quadExpect {
					var w fabric.Word
					var ok bool
					for _, c := range []fabric.Color{ar.c4a, ar.c4b, ar.c4c} {
						if w, ok = ar.F.Recv(at, c); ok {
							break
						}
					}
					if !ok {
						break
					}
					t.acc = perfmodel.ARAccumulate(t.acc, w.F32())
					t.quadGot++
					pops++
				}
				if t.quadGot == t.quadExpect && !t.sentRed {
					if ar.F.Send(at, fabric.WordF32(ar.red, t.acc)) {
						t.sentRed = true
					}
				}
			}
		}
	}

	// Everyone: wait for the broadcast result.
	if !t.haveResult {
		if w, ok := ar.F.Recv(at, ar.red); ok {
			t.result = w.F32()
			t.haveResult = true
			t.resultCycle = ar.F.Cycle()
		}
	}
}

// ReferenceSum computes the float64 sum, for accuracy checks.
func ReferenceSum(values []float32) float64 {
	var s float64
	for _, v := range values {
		s += float64(v)
	}
	return s
}

// MaxAbs returns max |v| over values; used for error bounds.
func MaxAbs(values []float32) float64 {
	m := 0.0
	for _, v := range values {
		m = math.Max(m, math.Abs(float64(v)))
	}
	return m
}
