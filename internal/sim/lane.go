package sim

import (
	"fmt"
	"math"

	"pftk/internal/pkt"
)

// Lane is a FIFO of packet deliveries due in non-decreasing time order
// (see "Lanes" in the package comment): either the engine's shared lane
// for one constant delay, or a private lane fed explicit times. Lane
// events have no Event handle and cannot be cancelled. A Lane belongs to
// the single goroutine driving its Engine.
type Lane struct {
	eng   *Engine
	delay float64    // the shared lane's constant delay; 0 for a private lane
	last  float64    // due time of the newest item ever queued
	id    int32      // arena slot standing for the lane's head in the heap
	items []laneItem // ring buffer; len is a power of two
	head  int        // index of the oldest item
	n     int        // number of queued items
}

// laneItem is one pending delivery; seq is drawn when it is scheduled.
// The schedule paths store its fields one by one: a laneItem literal is
// built on the stack and block-copied into the ring.
type laneItem struct {
	at  float64
	seq uint64
	fn  func(pkt.Packet)
	pkt pkt.Packet
}

// Lane returns the engine's lane for constant delay d (seconds), creating
// it on first use. Every caller asking for the same d shares one lane. A
// negative or NaN delay panics.
func (e *Engine) Lane(d float64) *Lane {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("sim: Lane with negative delay %g", d))
	}
	key := math.Float64bits(d)
	if l := e.lanes[key]; l != nil {
		return l
	}
	if e.lanes == nil {
		e.lanes = make(map[uint64]*Lane)
	}
	l := e.NewLane()
	l.delay = d
	e.lanes[key] = l
	return l
}

// NewLane returns a private lane with no fixed delay, fed through
// SchedulePacketAt with due times that never decrease. It takes one
// permanent arena slot.
func (e *Engine) NewLane() *Lane {
	l := &Lane{eng: e, id: int32(len(e.slots))}
	e.slots = append(e.slots, slot{lane: l, heapIdx: -1})
	return l
}

// SchedulePacket runs fn(p) at Now()+d, d the lane's delay. It fires
// exactly where Engine.SchedulePacket(Now()+d, fn, p) would, among every
// other event on the engine, without a heap node of its own. Steady
// state allocates nothing: the ring grows only at capacity. On a
// private lane (delay 0) a time before the lane's newest item panics.
//
//pftk:hotpath
func (l *Lane) SchedulePacket(fn func(pkt.Packet), p pkt.Packet) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e := l.eng
	at := e.now + l.delay
	if at < l.last {
		l.outOfOrder("SchedulePacket", at)
	}
	// The append below is repeated in SchedulePacketAt rather than
	// shared: a call level more on this path, the one every constant-
	// delay delivery takes, cost BenchmarkSimHold about a tenth.
	l.last = at
	seq := e.nextSeq
	e.nextSeq++
	if l.n == len(l.items) {
		l.grow()
	}
	it := &l.items[(l.head+l.n)&(len(l.items)-1)]
	it.at, it.seq, it.fn, it.pkt = at, seq, fn, p
	l.n++
	if l.n == 1 {
		e.push(node{at: at, seq: seq, id: l.id})
	}
	e.noteScheduled(at, seq)
}

// SchedulePacketAt runs fn(p) at absolute time at, exactly where
// Engine.SchedulePacket(at, fn, p) would fire it. A time before Now or
// before the lane's newest item panics: the lane is a FIFO.
//
//pftk:hotpath
func (l *Lane) SchedulePacketAt(at float64, fn func(pkt.Packet), p pkt.Packet) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e := l.eng
	if !(at >= e.now && at >= l.last) {
		l.outOfOrder("SchedulePacketAt", at)
	}
	l.last = at
	seq := e.nextSeq
	e.nextSeq++
	if l.n == len(l.items) {
		l.grow()
	}
	it := &l.items[(l.head+l.n)&(len(l.items)-1)]
	it.at, it.seq, it.fn, it.pkt = at, seq, fn, p
	l.n++
	if l.n == 1 {
		e.push(node{at: at, seq: seq, id: l.id})
	}
	e.noteScheduled(at, seq)
}

// outOfOrder panics for a due time the FIFO cannot take. It stays out of
// line so the formatting adds nothing to the schedule paths.
//
//go:noinline
func (l *Lane) outOfOrder(method string, at float64) {
	panic(fmt.Sprintf("sim: Lane.%s at %g before now %g or the lane's newest item at %g", method, at, l.eng.now, l.last))
}

// pop removes the oldest item and returns its callback and payload,
// dropping the ring's reference to the callback.
//
//pftk:hotpath
func (l *Lane) pop() (func(pkt.Packet), pkt.Packet) {
	it := &l.items[l.head]
	fn, p := it.fn, it.pkt
	it.fn = nil
	l.head = (l.head + 1) & (len(l.items) - 1)
	l.n--
	return fn, p
}

// grow doubles the ring (cold path), linearizing the queued items.
func (l *Lane) grow() {
	items := make([]laneItem, max(2*len(l.items), 16))
	for i := 0; i < l.n; i++ {
		items[i] = l.items[(l.head+i)&(len(l.items)-1)]
	}
	l.items = items
	l.head = 0
}
