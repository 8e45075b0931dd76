package fabric

import "fmt"

// This file captures and restores the fabric's complete architectural
// state — everything Fingerprint hashes plus the hot-tile marks the
// arbitration walk depends on. The wse machine snapshot (wse/snapshot.go)
// embeds a State; the versioned binary encoding lives there, keeping
// this package free of serialization concerns.

// QueueSnap is the contents of one non-empty word queue. In < NumPorts
// addresses a router input queue for (In, Color); In == NumPorts
// addresses the tile's core receive buffer for Color.
type QueueSnap struct {
	Tile  int32
	In    uint8
	Color uint8
	Words []uint32
}

// State is a restorable capture of a Fabric. Two fabrics with the same
// routing program and equal States evolve bit-identically from that
// point on, for any stepping engine.
type State struct {
	W, H         int
	Cycle, Moves int64
	// RR is each router's output arbitration rotation (only rotation
	// slot 0 is ever advanced by the stepping engines; see router.rr).
	RR []int64
	// Queues lists every non-empty router input queue and core receive
	// buffer, in tile/port/color order.
	Queues []QueueSnap
	// Hot lists the tiles currently marked hot (ascending). Hot marks
	// are architectural: the claim walk advances a hot tile's
	// arbitration rotation every cycle until the tile cools, so a
	// restore that dropped them would let rr drift from the original.
	Hot []int32
}

// CaptureState snapshots the fabric. It must not run concurrently with
// Step.
func (f *Fabric) CaptureState() *State {
	s := &State{W: f.W, H: f.H, Cycle: f.cycle, Moves: f.moves, RR: make([]int64, len(f.routers))}
	snapQueue := func(tile int, in uint8, c uint8, q *queue) {
		if q == nil || q.empty() {
			return
		}
		qs := QueueSnap{Tile: int32(tile), In: in, Color: c, Words: make([]uint32, q.len())}
		for k := range qs.Words {
			qs.Words[k] = q.at(k)
		}
		s.Queues = append(s.Queues, qs)
	}
	for i := range f.routers {
		s.RR[i] = f.routers[i].rr
		tb := &f.tables[i]
		for in := Port(0); in < NumPorts; in++ {
			for c := 0; c < MaxColors; c++ {
				snapQueue(i, uint8(in), uint8(c), tb.queues[in][c])
			}
		}
		for c := 0; c < MaxColors; c++ {
			snapQueue(i, uint8(NumPorts), uint8(c), f.rx[i][c])
		}
	}
	for i, h := range f.hot {
		if h {
			s.Hot = append(s.Hot, int32(i))
		}
	}
	return s
}

// RestoreState loads s into the fabric, which must have the same
// dimensions and the same routing program as the captured one (every
// captured router queue must exist here). Queue contents, counters,
// arbitration rotations and hot marks are replaced wholesale; the
// engine shard partition may differ (hot marks re-shard on restore), so
// a capture restores across worker counts.
func (f *Fabric) RestoreState(s *State) error {
	if s.W != f.W || s.H != f.H {
		return fmt.Errorf("fabric: snapshot is %dx%d, fabric is %dx%d", s.W, s.H, f.W, f.H)
	}
	if len(s.RR) != len(f.routers) {
		return fmt.Errorf("fabric: snapshot has %d routers, fabric has %d", len(s.RR), len(f.routers))
	}
	// The in-flight counters follow the queues, also on a failed
	// (partial) restore.
	defer f.recountInflight()
	// Reset live state.
	for i := range f.routers {
		r := &f.routers[i]
		r.rr = s.RR[i]
		if n := len(r.active); n > 0 {
			r.rrIdx = int32(r.rr % int64(n))
		}
		r.occ = 0 // queue refill below re-sets bits via push
		tb := &f.tables[i]
		for in := Port(0); in < NumPorts; in++ {
			for c := 0; c < MaxColors; c++ {
				if q := tb.queues[in][c]; q != nil {
					q.head, q.size = 0, 0
				}
			}
		}
		for c := 0; c < MaxColors; c++ {
			if q := f.rx[i][c]; q != nil {
				q.head, q.size = 0, 0
			}
		}
	}
	f.cycle, f.moves = s.Cycle, s.Moves
	for i := range f.hot {
		f.hot[i] = false
	}
	for sh := range f.hotLists {
		f.hotLists[sh] = f.hotLists[sh][:0]
	}
	// Refill queues.
	for _, qs := range s.Queues {
		ti := int(qs.Tile)
		if ti < 0 || ti >= len(f.routers) {
			return fmt.Errorf("fabric: snapshot queue at tile %d out of range", ti)
		}
		if qs.Color >= MaxColors || qs.In > uint8(NumPorts) {
			return fmt.Errorf("fabric: snapshot queue at tile %d has bad port/color %d/%d", ti, qs.In, qs.Color)
		}
		var q *queue
		if qs.In == uint8(NumPorts) {
			q = f.rxQueue(ti, Color(qs.Color))
		} else {
			q = f.tables[ti].queues[qs.In][qs.Color]
			if q == nil {
				return fmt.Errorf("fabric: snapshot has words on (%v,%d) at tile %d but no such route is configured",
					Port(qs.In), qs.Color, ti)
			}
		}
		for _, w := range qs.Words {
			if !q.push(w) {
				return fmt.Errorf("fabric: snapshot queue at tile %d (%d words) exceeds configured depth %d",
					ti, len(qs.Words), len(q.buf))
			}
		}
	}
	for _, t := range s.Hot {
		if t < 0 || int(t) >= len(f.hot) {
			return fmt.Errorf("fabric: snapshot hot tile %d out of range", t)
		}
		f.markHot(int(t))
	}
	return nil
}
