package perfmodel

import (
	"fmt"
	"sort"
)

// This file is the exact replay of the Figure-6 AllReduce
// (kernels.AllReduce): the row chains into the central columns, the
// column chains into the central rows, the 4:1 quad into the root and
// the red broadcast, reproduced against a live fabric without
// simulating the fabric cycle by cycle. AllReduceCycles answers "how
// long does the reduction take"; AllReduceReplay answers "exactly what
// does one reduction do to this machine": the cycle count and word
// moves, every router's final arbitration rotation and the final hot
// set (fabric.ApplyReplay's inputs), and the float32 tree-order sum,
// accumulated at each center in the order its words arrive.
//
// The reduction's traffic decomposes into one-dimensional lines that
// never share a router port while both carry words:
//
//   - every tile of a line injects its word on the same cycle, so a
//     chain router only ever holds words on its through entry after the
//     first cycle and never arbitrates. Where the line's sink takes one
//     word per cycle (an even dimension: each half-line has its own
//     center) the chain is a perfect pipeline and every occupancy is
//     closed-form;
//   - an odd dimension has a single central line whose sink router
//     takes both halves through its one ramp port. Which half wins each
//     cycle is decided by the router's round-robin rotation, which
//     decides both the summation order and the backpressure pattern
//     (and therefore the rotations) of the two chains. That line is
//     simulated word by word with occupancy counters, once per distinct
//     (rotation phase, entry layout) — every row of an odd-width wafer
//     with the same layout replays the same line;
//   - the quad contends at the root's ramp for three words and is
//     resolved from the root's rotation directly; the broadcast is a
//     contention-free multicast tree that reaches tile (x, y) after
//     |x−cx0| + |y−cy0| hops.
//
// Rotations follow from occupancy alone: the fabric's claim phase
// visits a router — and charges it one rotation — on every cycle it
// starts with words queued and on the cycle after, when it cools. The
// replay records each router's occupied intervals phase by phase and
// counts the union of those visits.
//
// The model assumes the default hardware queue depth (4 words; any
// depth of two or more keeps an uncontended chain at one word per
// cycle), a quiescent fabric and empty AllReduce receive buffers at
// the start, and the AllReduce's host actors stepping every cycle;
// kernels.AllReduce checks all of that before it replays and falls
// back to cycle simulation otherwise. TestAllReduceReplayEndState (wse
// difftest) and FuzzAllReduceReplay (kernels) pin the replay against
// cycle simulation on value bits, cycles and the machine fingerprint.

// ARLeg names one AllReduce route entry whose arbitration slot the
// replay needs: the two entries that compete for a single central
// line's ramp port, and the three quad entries at the root.
type ARLeg uint8

// The contended AllReduce route entries.
const (
	// ARRowWest and ARRowEast are the row-reduction (blue) entries
	// delivering to a single central column's core, for words arriving
	// from the west and from the east.
	ARRowWest ARLeg = iota
	ARRowEast
	// ARColNorth and ARColSouth are the column-reduction (green)
	// entries delivering to a single central row's core.
	ARColNorth
	ARColSouth
	// ARQuadA, ARQuadB and ARQuadC are the root's quad entries: from
	// the east neighbour, from the south neighbour, and the diagonal
	// center's word relayed through the south neighbour.
	ARQuadA
	ARQuadB
	ARQuadC
	NumARLegs
)

// ARSlots is one router's arbitration layout as the replay needs it:
// the number of configured route entries (the rotation modulus) and the
// slot of each AllReduce leg in arbitration order, -1 where the router
// does not configure the leg.
type ARSlots struct {
	N    int
	Slot [NumARLegs]int
}

// AllReduceSeed is the live-fabric context one replay starts from.
type AllReduceSeed struct {
	// Values holds each tile's contribution, row-major.
	Values []float32
	// RR returns router ti's current arbitration rotation counter.
	RR func(ti int) int64
	// Hot lists the tiles the fabric currently has marked hot.
	Hot []int
	// Slots returns router ti's layout. It is queried only for the
	// routers where AllReduce words contend: a single central line's
	// sinks and the root.
	Slots func(ti int) ARSlots
}

// AllReduceReplayResult is what one replayed reduction does to the
// machine. The slices are owned by the AllReduceReplay and valid until
// its next Run.
type AllReduceReplayResult struct {
	// Cycles runs from the first injection to the cycle the last tile
	// receives the broadcast; it equals AllReduceCycles for the shape.
	Cycles int64
	Moves  int64 // fabric word moves
	// Sum is the root's tree-order float32 sum, the broadcast value.
	Sum float32
	// Broadcast is the cycle (counted from the start) on which the root
	// injects the broadcast; tile (x, y) receives it on cycle
	// Broadcast + 1 + |x−cx0| + |y−cy0|.
	Broadcast int64
	// Acc is each tile's final accumulator: its own value for a tile
	// that only sends, the partial sum it forwarded (or, at the root,
	// the total) for a center.
	Acc []float32
	RR  []int64 // each router's final arbitration rotation
	Hot []int   // tiles hot after the final cycle, ascending
}

// AllReduceReplay replays the Figure-6 AllReduce of a w×h fabric.
// Build it once per fabric; Run reuses its buffers.
type AllReduceReplay struct {
	w, h               int
	cx0, cx1, cy0, cy1 int

	// Phase boundaries, in cycles from the start: rows are done (and
	// the column chains inject) after rowEnd, columns after colEnd, the
	// root broadcasts after bcast, and the last tile receives on end.
	rowEnd, colEnd, bcast, end int64

	acc   []float32
	rr    []int64
	last  []int64 // per router: the last cycle already counted as a visit
	hot   []int
	moves int64

	lines map[arLineKey]*arLine
	count [2][]int32 // contended-line simulation scratch, see line
}

// NewAllReduceReplay builds the replay for a w×h fabric. The central
// lines and phase boundaries mirror kernels.NewAllReduce's routing.
func NewAllReduceReplay(w, h int) *AllReduceReplay {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("perfmodel: AllReduce replay of a %dx%d fabric", w, h))
	}
	r := &AllReduceReplay{
		w: w, h: h,
		cx0: (w - 1) / 2, cx1: w / 2,
		cy0: (h - 1) / 2, cy1: h / 2,
		acc:   make([]float32, w*h),
		rr:    make([]int64, w*h),
		last:  make([]int64, w*h),
		lines: map[arLineKey]*arLine{},
	}
	r.rowEnd = lineSpan(w)
	r.colEnd = r.rowEnd + lineSpan(h)
	switch r.quadWords() {
	case 1:
		r.bcast = r.colEnd + 2 // one hop, then the root's ramp
	case 3:
		r.bcast = r.colEnd + 4 // the root's ramp serializes three words
	default:
		r.bcast = r.colEnd
	}
	r.end = r.bcast + 1 + int64(w/2+h/2)
	return r
}

// Cycles returns the reduction's cycle count, known before any Run.
func (r *AllReduceReplay) Cycles() int64 { return r.end }

// lineSpan is the cycle on which the last word of a central line of
// extent n reaches its center's core: a half-line of c words drains
// one per cycle after a one-cycle hop, and a single central line
// (odd n) drains both halves through one ramp.
func lineSpan(n int) int64 {
	c := int64((n - 1) / 2)
	switch {
	case c == 0:
		return 0
	case n%2 == 0:
		return c + 1
	default:
		return 2*c + 1
	}
}

// quadWords is the number of words the 4:1 reduction moves into the
// root: one per extra center.
func (r *AllReduceReplay) quadWords() int {
	n := 0
	if r.cx1 != r.cx0 {
		n++
	}
	if r.cy1 != r.cy0 {
		n++
	}
	if n == 2 {
		n = 3
	}
	return n
}

// Run replays one reduction of seed.Values from the seeded fabric
// context.
func (r *AllReduceReplay) Run(seed AllReduceSeed) AllReduceReplayResult {
	w, h := r.w, r.h
	if len(seed.Values) != w*h {
		panic(fmt.Sprintf("perfmodel: AllReduce replay needs %d values, got %d", w*h, len(seed.Values)))
	}
	copy(r.acc, seed.Values)
	for ti := range r.rr {
		r.rr[ti] = seed.RR(ti)
		r.last[ti] = 0
	}
	r.hot = r.hot[:0]
	r.moves = 0
	// A router left hot by the previous phase takes one rotation on the
	// first cycle whether or not it holds words.
	for _, ti := range seed.Hot {
		r.occupy(ti, 1, 0)
	}

	// Rows: chains toward the central columns, injected on cycle 1.
	for y := 0; y < h; y++ {
		r.reduceLine(seed, 0, y*w, 1, r.cx0, r.cx1, ARRowWest, ARRowEast)
	}
	// Columns: chains toward the central rows, within each central
	// column, injected once the rows are done.
	r.reduceLine(seed, r.rowEnd, r.cx0, w, r.cy0, r.cy1, ARColNorth, ARColSouth)
	if r.cx1 != r.cx0 {
		r.reduceLine(seed, r.rowEnd, r.cx1, w, r.cy0, r.cy1, ARColNorth, ARColSouth)
	}
	r.quad(seed)

	// Broadcast: every router forwards the root's word once, d hops out.
	for y := 0; y < h; y++ {
		dy := abs(y - r.cy0)
		for x := 0; x < w; x++ {
			c := r.bcast + 1 + int64(abs(x-r.cx0)+dy)
			r.occupy(y*w+x, c, c)
		}
	}
	r.moves += int64(w * h)

	sort.Ints(r.hot)
	return AllReduceReplayResult{
		Cycles:    r.end,
		Moves:     r.moves,
		Sum:       r.acc[r.cy0*w+r.cx0],
		Broadcast: r.bcast,
		Acc:       r.acc,
		RR:        r.rr,
		Hot:       r.hot,
	}
}

// occupy records that router ti holds words at the start of cycles
// a..b (b < a records only a visit on cycle a), charging one rotation
// per visited cycle: a..b while occupied plus b+1 as it cools, up to
// the reduction's last cycle. Calls for one router must come in
// non-decreasing a, which the phase order guarantees.
func (r *AllReduceReplay) occupy(ti int, a, b int64) {
	end := b + 1
	if end < a {
		end = a
	}
	if end > r.end {
		end = r.end
	}
	from := a
	if l := r.last[ti] + 1; l > from {
		from = l
	}
	if end >= from {
		r.rr[ti] += end - from + 1
		r.last[ti] = end
	}
	if a <= r.end && r.end <= b {
		r.hot = append(r.hot, ti)
	}
}

// reduceLine replays one line of the reduction: base+i*stride is the
// line's i-th tile, c0 and c1 its central positions (equal on an odd
// extent), and the chains inject on cycle t0+1. Chain words fold into
// the centers' accumulators nearest first.
func (r *AllReduceReplay) reduceLine(seed AllReduceSeed, t0 int64, base, stride, c0, c1 int, lo, hi ARLeg) {
	if c0 == 0 {
		return // every position is central: no chains
	}
	at := func(i int) int { return base + i*stride }
	l := c0 // words per half-line, equal on both sides
	hops := int64(l*(l+1)/2 + l)
	r.moves += 2 * hops
	if c0 != c1 {
		// Two centers, each fed by one half at one word per cycle: a
		// chain router k hops from its center carries its own word and
		// the l−k words behind it, one per cycle.
		for k := 1; k <= l; k++ {
			r.occupy(at(c0-k), t0+1, t0+1+int64(l-k))
			r.occupy(at(c1+k), t0+1, t0+1+int64(l-k))
		}
		r.occupy(at(c0), t0+2, t0+1+int64(l))
		r.occupy(at(c1), t0+2, t0+1+int64(l))
		for k := 1; k <= l; k++ {
			r.acc[at(c0)] = ARAccumulate(r.acc[at(c0)], r.acc[at(c0-k)])
		}
		for k := 1; k <= l; k++ {
			r.acc[at(c1)] = ARAccumulate(r.acc[at(c1)], r.acc[at(c1+k)])
		}
		return
	}
	// One center absorbing both halves: its rotation decides the order.
	sink := at(c0)
	sl := seed.Slots(sink)
	s0, s1 := sl.Slot[lo], sl.Slot[hi]
	if sl.N <= 0 || s0 < 0 || s1 < 0 || s0 >= sl.N || s1 >= sl.N {
		panic(fmt.Sprintf("perfmodel: AllReduce replay: router %d lacks the contended legs %d/%d (layout %+v)", sink, lo, hi, sl))
	}
	ln := r.line(arLineKey{l: l, n: sl.N, s0: s0, s1: s1, start: int(r.rr[sink] % int64(sl.N))})
	for k := 1; k <= l; k++ {
		r.occupy(at(c0-k), t0+1, t0+ln.dep[0][k])
		r.occupy(at(c0+k), t0+1, t0+ln.dep[1][k])
	}
	for _, iv := range ln.sink {
		r.occupy(sink, t0+iv[0], t0+iv[1])
	}
	next := [2]int{1, 1}
	for _, side := range ln.order {
		k := next[side]
		next[side]++
		if side == 0 {
			r.acc[sink] = ARAccumulate(r.acc[sink], r.acc[at(c0-k)])
		} else {
			r.acc[sink] = ARAccumulate(r.acc[sink], r.acc[at(c0+k)])
		}
	}
}

// quad replays the 4:1 reduction into the root at (cx0, cy0).
func (r *AllReduceReplay) quad(seed AllReduceSeed) {
	w, c := r.w, r.colEnd
	root := r.cy0*w + r.cx0
	a := r.cy0*w + r.cx1  // east center: c4a, one hop west
	b := r.cy1*w + r.cx0  // south center: c4b, one hop north
	cc := r.cy1*w + r.cx1 // diagonal center: c4c, west then north
	switch r.quadWords() {
	case 1:
		src := a
		if r.cx1 == r.cx0 {
			src = b
		}
		r.occupy(src, c+1, c+1)
		r.occupy(root, c+2, c+2)
		r.acc[root] = ARAccumulate(r.acc[root], r.acc[src])
		r.moves += 2
	case 3:
		// Cycle c+1: c4a and c4b hop into the root's queues while c4c
		// hops to the south center. Cycle c+2: c4a and c4b contend for
		// the root's ramp while c4c moves up behind them; the loser and
		// c4c contend on c+3; the last word lands on c+4.
		sl := seed.Slots(root)
		for _, g := range []ARLeg{ARQuadA, ARQuadB, ARQuadC} {
			if s := sl.Slot[g]; s < 0 || s >= sl.N {
				panic(fmt.Sprintf("perfmodel: AllReduce replay: root lacks quad leg %d (layout %+v)", g, sl))
			}
		}
		rot := r.rr[root]
		first, loser := ARQuadA, ARQuadB
		if !reachedFirst(rot, sl.N, sl.Slot[first], sl.Slot[loser]) {
			first, loser = loser, first
		}
		second, third := loser, ARQuadC
		if !reachedFirst(rot+1, sl.N, sl.Slot[second], sl.Slot[third]) {
			second, third = third, second
		}
		r.occupy(a, c+1, c+1)
		r.occupy(cc, c+1, c+1)
		r.occupy(b, c+1, c+2)
		r.occupy(root, c+2, c+4)
		for _, g := range []ARLeg{first, second, third} {
			src := cc
			switch g {
			case ARQuadA:
				src = a
			case ARQuadB:
				src = b
			}
			r.acc[root] = ARAccumulate(r.acc[root], r.acc[src])
		}
		r.moves += 2 + 2 + 3
	}
}

// ARAccumulate is the AllReduce's one reduction step, acc + v in
// float32, shared by kernels.AllReduce's host actors and the replay.
// IEEE addition is commutative except for the payload of a NaN result
// when both operands are NaNs, which the hardware takes from one fixed
// operand; the compiler may order a commutative add either way at each
// call site, so both sides call this one compiled body (never inlined)
// and agree to the bit.
//
//go:noinline
func ARAccumulate(acc, v float32) float32 { return acc + v }

// reachedFirst reports whether the claim walk of a router with n
// entries and rotation counter rot reaches slot a before slot b: the
// walk starts at slot rot mod n and wraps, and the first non-empty
// entry it reaches claims the contended port.
func reachedFirst(rot int64, n, a, b int) bool {
	start := int(rot % int64(n))
	return (a-start+n)%n < (b-start+n)%n
}

// arLineKey identifies a single central line's replay: half-line length,
// the sink router's entry count and contended slots, and its rotation
// slot on the cycle the first words reach it.
type arLineKey struct{ l, n, s0, s1, start int }

// arLine is one contended line's outcome, in cycles relative to the
// cycle before the chains inject.
type arLine struct {
	// order lists the side (0: from the low end, 1: from the high end)
	// of each word the sink delivers, in delivery order.
	order []uint8
	// sink lists the sink router's occupied intervals.
	sink [][2]int64
	// dep[s][k] is the cycle the last word leaves the chain router k
	// hops from the sink on side s (index 0 unused).
	dep [2][]int64
}

// line returns the outcome of a single central line, simulating it on
// first use of its key. Each half-line holds l words, one per chain
// router, all injected on relative cycle 1; r.count[s][k] counts the
// words router k of side s holds (its ramp word on cycle 1, its through
// queue after), with the sink's input queue from side s at k = 0. Every move
// is judged against the cycle's starting occupancies, as the fabric's
// claim phase does.
func (r *AllReduceReplay) line(key arLineKey) *arLine {
	if ln, ok := r.lines[key]; ok {
		return ln
	}
	l := key.l
	ln := &arLine{order: make([]uint8, 0, 2*l)}
	for s := 0; s < 2; s++ {
		if cap(r.count[s]) < l+1 {
			r.count[s] = make([]int32, l+1)
		}
		r.count[s] = r.count[s][:l+1]
		r.count[s][0] = 0
		for k := 1; k <= l; k++ {
			r.count[s][k] = 1
		}
		ln.dep[s] = make([]int64, l+1)
	}
	rot := int64(key.start) // the sink's rotation on the first cycle it can hold words
	top := [2]int{l, l}     // highest chain router still holding words
	prevOcc := false
	for t := int64(1); len(ln.order) < 2*l; t++ {
		q0, q1 := r.count[0][0], r.count[1][0]
		occ := q0 > 0 || q1 > 0
		win := -1
		switch {
		case q0 > 0 && q1 > 0:
			win = 1
			if reachedFirst(rot, key.n, key.s0, key.s1) {
				win = 0
			}
		case q0 > 0:
			win = 0
		case q1 > 0:
			win = 1
		}
		if occ {
			if n := len(ln.sink); n > 0 && ln.sink[n-1][1] == t-1 {
				ln.sink[n-1][1] = t
			} else {
				ln.sink = append(ln.sink, [2]int64{t, t})
			}
		}
		if occ || prevOcc {
			rot++
		}
		prevOcc = occ
		for s := 0; s < 2; s++ {
			c := r.count[s]
			down := c[0]
			arrive := int32(0)
			for k := 1; k <= top[s]; k++ {
				cur := c[k]
				if cur > 0 && down < saQueueDepth {
					c[k]--
					if k == 1 {
						arrive = 1
					} else {
						c[k-1]++
					}
					ln.dep[s][k] = t
				}
				down = cur
			}
			for top[s] > 0 && c[top[s]] == 0 {
				top[s]--
			}
			if win == s {
				c[0]--
				ln.order = append(ln.order, uint8(s))
			}
			c[0] += arrive
		}
	}
	r.lines[key] = ln
	return ln
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
