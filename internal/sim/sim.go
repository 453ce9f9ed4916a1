// Package sim provides the discrete-event simulation engine underneath the
// network emulator and the TCP Reno implementation: a pooled event arena
// behind a monomorphic 4-ary min-heap with a virtual clock, stable FIFO
// ordering for simultaneous events, lazily re-keyed timers, and FIFO
// lanes for packet deliveries due in order.
//
// Time is a float64 number of seconds since the start of the simulation.
// Determinism: given the same sequence of Schedule calls, Run always fires
// events in the same order, so simulations seeded with a fixed RNG are
// fully reproducible.
//
// # Allocation discipline
//
// The hot path — Schedule, Step, Cancel — performs zero steady-state
// allocations. Fired and cancelled events return their arena slot to an
// engine-owned free list, so a simulation that schedules millions of
// events reuses a working set of slots sized by the peak queue depth. The
// heap stores (time, seq, slot) triples directly, so sift operations
// compare plain float64/uint64 fields with no interface boxing and no
// per-Push pointer churn. The property is pinned by
// TestScheduleStepSteadyStateZeroAlloc and the BenchmarkSim* suite.
//
// The heap and the free list are backing arrays with explicit lengths
// that grow only at capacity. Popping, removing and recycling change an
// integer length and never re-store a slice header, so they trigger no
// GC write barrier; the only pointer stores left on the hot path are the
// callback fields of a slot being filled or recycled.
//
// # Lanes
//
// A delivery scheduled a constant delay d after Now is due at Now+d, and
// since the clock never runs backwards, neither does that time: every
// delivery scheduled with the same d is due no earlier than the one
// scheduled before it. Lane(d) keeps such deliveries in one FIFO ring per
// distinct d (shared by every caller on the engine), and only the ring's
// head is a node in the heap, standing on an arena slot the lane owns.
// When the head fires, the lane's next head replaces it at the heap root.
// A lane event draws its sequence number from the same counter as a heap
// event, when it is scheduled, so the ring is sorted by (time, seq) and
// the engine fires lane and heap events in exactly the (time, seq) order
// one heap holding them all would. A link whose packets are all in
// propagation thus costs the heap one node, not one per packet.
//
// NewLane makes a private lane with no fixed delay, fed explicit times
// through SchedulePacketAt, which panics on a time before Now or before
// the lane's newest item. A caller that can promise non-decreasing times
// — a link whose FIFO clamp holds, whatever its delay jitter — gets the
// same one-node cost, and the same argument gives the same fire order:
// the ring is sorted by (time, seq) because both only grow.
//
// # Timers
//
// A Timer owns one arena slot for life, and at most one heap node stands
// on it. The timer keeps its armed deadline (at, seq) itself; Reset
// draws the seq from the shared counter exactly as Schedule would. The
// node's key is only ever a lower bound on that deadline. Rearming later
// (the TCP sender's RTO restart on every ACK) leaves the node where it
// is, raising its key in place only when it is a leaf; rearming earlier
// lowers the key in place and sifts it up; Stop just disarms the timer.
// When the node reaches the root, Step settles it before firing
// anything: a disarmed timer's node is dropped, a node whose seq lags
// the deadline's is re-keyed to it and sifted down, and only a node
// keyed exactly at the deadline fires. Since the key never exceeds the
// deadline, no event due after the deadline can fire before it, and
// once re-keyed the node orders exactly as a fresh event scheduled at
// Reset would: the (at, seq) fire order is unchanged. Settling fires
// nothing and calls no hook; Pending, Fired, the hooks and the flight
// recorder see a Reset as a cancel plus a schedule and a Stop as a
// cancel, as before. A single connection's heap thus holds a handful of
// nodes — its timers, its lanes and the next transmission — however
// often the timers move.
//
// # Deferred pop
//
// Step leaves the fired root vacant rather than refilling it from the
// last leaf at once. The first heap insert made by the callback (typically
// the next transmission or timer) drops into the hole and sifts down from
// the root; anything else that needs the heap whole (Cancel, the next
// Step) first fills the hole from the last leaf, which is exactly the
// pop the engine skipped. Either way the heap holds the same set of
// nodes as with an eager pop, so the fire order is unchanged.
//
// # Handle safety
//
// Schedule returns a value-type Event handle carrying the slot index and a
// generation counter. Recycling a slot bumps its generation, so a stale
// handle (kept after its event fired or was cancelled) can never cancel
// the slot's next occupant: Cancel on a stale handle is a safe no-op.
package sim

import (
	"fmt"
	"math"

	"pftk/internal/obs"
	"pftk/internal/pkt"
)

// Event is a cheap value handle for a scheduled callback. The zero Event
// refers to nothing: cancelling it is a no-op and Scheduled reports false.
// Handles stay safe after their event fires or is cancelled — the arena
// slot's generation counter makes stale cancels no-ops.
type Event struct {
	id  int32  // arena slot index + 1; 0 means "no event"
	gen uint32 // slot generation the handle was issued for
}

// slot is one arena entry. Fire time and sequence number live in the heap
// node, not here: the sift loops touch only the heap's contiguous nodes.
// The packet payload rides in the slot as a typed value — no interface
// boxing, and because pkt.Packet is pointer-free a recycled slot retains
// no heap references without any per-recycle clearing.
type slot struct {
	fn      func()           // callback for Schedule/After events
	pktFn   func(pkt.Packet) // callback for SchedulePacket events
	pkt     pkt.Packet       // payload delivered to pktFn
	lane    *Lane            // the lane whose head this slot stands for; nil for a heap event
	timer   *Timer           // the timer that owns this slot; nil for a heap event
	gen     uint32           // bumped on recycle; validates Event handles
	heapIdx int32            // position in Engine.heap, -1 when not queued
}

// node is one heap entry, ordered by (at, seq).
type node struct {
	at  float64
	seq uint64 // tie-break: FIFO among simultaneous events
	id  int32  // arena slot holding the callback
}

// nodeLess orders heap nodes by (time, seq). Ordered comparisons only:
// ties (exactly equal times) fall through to the FIFO sequence number,
// without a raw float equality test.
func nodeLess(a, b node) bool {
	if a.at < b.at {
		return true
	}
	if a.at > b.at {
		return false
	}
	return a.seq < b.seq
}

// Hooks receives engine lifecycle callbacks, the attachment point for the
// observability layer (events/sec, queue-depth high-water marks,
// per-component event accounting). Every field is optional; the engine
// pays one nil-func check per callback site, so an engine with no hooks
// (or sparse hooks) stays allocation-free on the hot path — a property
// pinned by TestStepDisabledMetricsZeroAlloc and
// BenchmarkSimStepObsDisabled.
type Hooks struct {
	// EventFired is called after each event callback returns, with the
	// fire time and the queue depth left behind (including anything the
	// event itself scheduled).
	EventFired func(now float64, pending int)
	// Scheduled is called after each successful Schedule (lane
	// deliveries included) with the event's fire time and the resulting
	// queue depth.
	Scheduled func(at float64, pending int)
	// Cancelled is called each time Cancel removes a still-pending
	// event (not for already-fired or doubly-cancelled events).
	Cancelled func()
}

// NewMetricHooks registers the standard engine metrics on r: events
// fired ("sim.events"), the queue-depth high-water mark
// ("sim.queue.depth") and cancels ("sim.cancels"). The handles are
// preallocated, so the hooks never allocate on the hot path.
func NewMetricHooks(r *obs.Registry) Hooks {
	events := r.Counter("sim.events")
	depth := r.Gauge("sim.queue.depth")
	cancels := r.Counter("sim.cancels")
	return Hooks{
		EventFired: func(_ float64, pending int) {
			events.Inc()
			depth.Set(float64(pending))
		},
		Scheduled: func(_ float64, pending int) { depth.Set(float64(pending)) },
		Cancelled: func() { cancels.Inc() },
	}
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     float64
	heap    []node           // backing array; heap[:nheap] is the 4-ary min-heap of (at, seq, slot) triples
	nheap   int              // live heap length, counting a vacant root
	hole    bool             // heap[0] is vacant: the last Step fired it and nothing has refilled it
	slots   []slot           // event arena; grows to the peak queue depth
	free    []int32          // backing array; free[:nfree] are recycled slot indices (LIFO)
	nfree   int              // live free-list length
	lanes   map[uint64]*Lane // by math.Float64bits of the lane's delay
	pending int              // scheduled events not yet fired or cancelled, lane events included
	nextSeq uint64
	stopped bool
	fired   uint64
	hooks   Hooks
	flight  *FlightRecorder
}

// SetHooks installs (or, with the zero Hooks, removes) the engine's
// observability callbacks.
func (e *Engine) SetHooks(h Hooks) { e.hooks = h }

// SetFlightRecorder attaches (or, with nil, detaches) a flight
// recorder. Each schedule, fire and cancel is then noted in the
// recorder's fixed ring; the hot path pays one nil check when
// detached.
func (e *Engine) SetFlightRecorder(f *FlightRecorder) { e.flight = f }

// FlightRecorder returns the attached flight recorder, or nil. Model
// layers (netem) use it to note their own drop events against the
// engine clock.
func (e *Engine) FlightRecorder() *FlightRecorder { return e.flight }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled, lane events
// included.
func (e *Engine) Pending() int { return e.pending }

// PoolSize returns the number of arena slots ever allocated: the peak
// number of concurrently pending heap events, plus one permanent slot
// per lane and per timer. Lane deliveries hold no slot of their own.
func (e *Engine) PoolSize() int { return len(e.slots) }

// Scheduled reports whether the event named by the handle is still
// pending: it has neither fired nor been cancelled. Stale and zero
// handles report false.
func (e *Engine) Scheduled(ev Event) bool {
	id := ev.id - 1
	if id < 0 || int(id) >= len(e.slots) {
		return false
	}
	s := &e.slots[id]
	return s.gen == ev.gen && s.heapIdx >= 0
}

// Schedule runs fn at absolute time at. Scheduling in the past (before
// Now) panics — it would silently corrupt causality. Simultaneous events
// fire in scheduling order.
//
//pftk:hotpath
func (e *Engine) Schedule(at float64, fn func()) Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return e.schedule(at, fn, nil, pkt.Packet{})
}

// SchedulePacket runs fn(p) at absolute time at. It is Schedule for
// packet-carrying callbacks: the typed payload rides in the event's
// arena slot, so hot paths that deliver a packet (link propagation)
// need neither a per-event closure nor an interface box. Scheduling
// rules match Schedule exactly, and the event draws from the same
// sequence space, so Schedule and SchedulePacket calls interleave
// deterministically.
//
//pftk:hotpath
func (e *Engine) SchedulePacket(at float64, fn func(pkt.Packet), p pkt.Packet) Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return e.schedule(at, nil, fn, p)
}

// schedule allocates a slot (reusing the free list), pushes a heap node
// and returns the generation-counted handle.
//
//pftk:hotpath
func (e *Engine) schedule(at float64, fn func(), pktFn func(pkt.Packet), p pkt.Packet) Event {
	if math.IsNaN(at) || at < e.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", at, e.now))
	}
	var id int32
	if e.nfree > 0 {
		e.nfree--
		id = e.free[e.nfree]
	} else {
		//pftklint:ignore hotalloc arena growth is amortized; the free list makes steady state allocation-free
		e.slots = append(e.slots, slot{})
		id = int32(len(e.slots) - 1)
	}
	s := &e.slots[id]
	s.fn = fn
	s.pktFn = pktFn
	s.pkt = p
	seq := e.nextSeq
	e.nextSeq++
	e.push(node{at: at, seq: seq, id: id})
	e.noteScheduled(at, seq)
	return Event{id: id + 1, gen: s.gen}
}

// noteScheduled counts a newly scheduled event; with a flight recorder or
// a Scheduled hook attached it reports the event to them too. Small
// enough to inline, so an engine without either pays two nil checks.
//
//pftk:hotpath
func (e *Engine) noteScheduled(at float64, seq uint64) {
	e.pending++
	if e.flight != nil || e.hooks.Scheduled != nil {
		e.reportScheduled(at, seq)
	}
}

// reportScheduled is noteScheduled's out-of-line half.
func (e *Engine) reportScheduled(at float64, seq uint64) {
	if e.flight != nil {
		e.flight.Note(FlightSchedule, e.now, at, seq, "")
	}
	if e.hooks.Scheduled != nil {
		e.hooks.Scheduled(at, e.pending)
	}
}

// After runs fn after delay d (seconds) from the current time. A negative
// or NaN delay panics, reporting the offending delay itself.
func (e *Engine) After(d float64, fn func()) Event {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("sim: After with negative delay %g", d))
	}
	return e.Schedule(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing and reports whether it
// removed a still-pending event. Cancelling the zero Event, an event that
// already fired, an already-cancelled event, or any other stale handle is
// a safe no-op returning false.
func (e *Engine) Cancel(ev Event) bool {
	id := ev.id - 1
	if id < 0 || int(id) >= len(e.slots) {
		return false
	}
	s := &e.slots[id]
	if s.gen != ev.gen || s.heapIdx < 0 {
		return false
	}
	if e.hole {
		e.fillHole()
	}
	n := e.heap[s.heapIdx]
	e.removeAt(int(s.heapIdx))
	e.recycle(id)
	e.noteCancelled(n.at, n.seq)
	return true
}

// noteCancelled uncounts a cancelled event; with a flight recorder or a
// Cancelled hook attached it reports the cancel to them too.
//
//pftk:hotpath
func (e *Engine) noteCancelled(at float64, seq uint64) {
	e.pending--
	if e.flight != nil || e.hooks.Cancelled != nil {
		e.reportCancelled(at, seq)
	}
}

// reportCancelled is noteCancelled's out-of-line half.
func (e *Engine) reportCancelled(at float64, seq uint64) {
	if e.flight != nil {
		e.flight.Note(FlightCancel, e.now, at, seq, "")
	}
	if e.hooks.Cancelled != nil {
		e.hooks.Cancelled()
	}
}

// Stop makes the current Run call return after the in-flight event
// completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next event, if any, and reports whether one fired.
//
//pftk:hotpath
func (e *Engine) Step() bool { return e.StepUntil(math.Inf(1)) }

// StepUntil fires the next event only if it is due at or before
// deadline, and reports whether one fired. Unlike Step, it never moves
// the clock past deadline.
//
//pftk:hotpath
func (e *Engine) StepUntil(deadline float64) bool {
	var top node
	var s *slot
	for {
		if e.hole {
			e.fillHole()
		}
		if e.nheap == 0 || e.heap[0].at > deadline {
			return false
		}
		top = e.heap[0]
		s = &e.slots[top.id]
		t := s.timer
		if t == nil || (t.armed && t.seq == top.seq) {
			break
		}
		// A timer node whose deadline moved (see "Timers" in the
		// package comment): drop it if the timer is disarmed, else
		// re-key it to the armed deadline. Neither fires anything.
		if !t.armed {
			s.heapIdx = -1
			e.hole = true
		} else {
			e.heap[0] = node{at: t.at, seq: t.seq, id: top.id}
			e.siftDown(0)
		}
	}
	var fn func()
	var pktFn func(pkt.Packet)
	var p pkt.Packet
	if t := s.timer; t != nil {
		t.armed = false
		fn = t.fn
		s.heapIdx = -1
		e.hole = true
	} else if l := s.lane; l != nil {
		pktFn, p = l.pop()
		if l.n > 0 {
			// The lane's next head is due no earlier than this one and
			// usually within a level or two of the root.
			next := &l.items[l.head]
			e.heap[0] = node{at: next.at, seq: next.seq, id: top.id}
			e.siftDown(0)
		} else {
			s.heapIdx = -1
			e.hole = true // see "Deferred pop" in the package comment
		}
	} else {
		fn, pktFn, p = s.fn, s.pktFn, s.pkt
		e.recycle(top.id)
		e.hole = true
	}
	e.pending--
	e.now = top.at
	e.fired++
	// Noted before the callback runs: a panicking event leaves its own
	// fire entry as the newest record in the dump.
	if e.flight != nil {
		e.flight.Note(FlightFire, e.now, top.at, top.seq, "")
	}
	if fn != nil {
		fn()
	} else {
		pktFn(p)
	}
	if e.hooks.EventFired != nil {
		e.hooks.EventFired(e.now, e.pending)
	}
	return true
}

// RunUntil processes events until the queue empties, Stop is called, or
// the next event would fire after deadline. The clock is advanced to
// deadline if the simulation drains or pauses before it. It returns the
// number of events fired by this call.
func (e *Engine) RunUntil(deadline float64) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped && e.StepUntil(deadline) {
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.fired - start
}

// Run processes events until the queue is empty or Stop is called, and
// returns the number of events fired by this call.
func (e *Engine) Run() uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.fired - start
}

// recycle returns a slot to the free list, bumping its generation so
// outstanding handles go stale, and dropping callback references so the
// pool never pins caller memory. The packet payload is left in place:
// pkt.Packet is pointer-free, so a stale copy pins nothing and the next
// occupant overwrites it.
//
//pftk:hotpath
func (e *Engine) recycle(id int32) {
	s := &e.slots[id]
	s.gen++
	s.fn = nil
	s.pktFn = nil
	s.heapIdx = -1
	if e.nfree == len(e.free) {
		e.free = grownFull(e.free)
	}
	e.free[e.nfree] = id
	e.nfree++
}

// grownFull returns a copy of the full backing array a with room for at
// least one more element, resliced to its whole capacity (cold path:
// callers track their live length separately and grow only at capacity).
func grownFull[T any](a []T) []T {
	var zero T
	a = append(a, zero)
	return a[:cap(a)]
}

// --- monomorphic 4-ary heap ---
//
// A 4-ary layout halves the tree depth of a binary heap, trading a little
// extra comparison work per level for far fewer cache lines touched on
// the sift-down path — the dominant operation in a simulator where nearly
// every pop is followed by a push. Children of i are 4i+1..4i+4; parent
// of i is (i-1)/4.

// siftUp moves the node at index i toward the root until its parent is
// not greater.
func (e *Engine) siftUp(i int) {
	h := e.heap[:e.nheap]
	n := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(n, h[p]) {
			break
		}
		h[i] = h[p]
		e.slots[h[i].id].heapIdx = int32(i)
		i = p
	}
	h[i] = n
	e.slots[n.id].heapIdx = int32(i)
}

// siftDown moves the node at index i toward the leaves until no child is
// smaller.
func (e *Engine) siftDown(i int) {
	h := e.heap[:e.nheap]
	n := h[i]
	for {
		c := (i << 2) + 1
		if c >= len(h) {
			break
		}
		end := c + 4
		if end > len(h) {
			end = len(h)
		}
		m := c
		for j := c + 1; j < end; j++ {
			if nodeLess(h[j], h[m]) {
				m = j
			}
		}
		if !nodeLess(h[m], n) {
			break
		}
		h[i] = h[m]
		e.slots[h[i].id].heapIdx = int32(i)
		i = m
	}
	h[i] = n
	e.slots[n.id].heapIdx = int32(i)
}

// push inserts a node: into the vacant root when Step left one (sifting
// down), otherwise at the first free leaf (sifting up).
//
//pftk:hotpath
func (e *Engine) push(n node) {
	if e.hole {
		e.hole = false
		e.heap[0] = n
		e.siftDown(0)
		return
	}
	if e.nheap == len(e.heap) {
		e.heap = grownFull(e.heap)
	}
	e.heap[e.nheap] = n
	e.nheap++
	e.siftUp(e.nheap - 1)
}

// fillHole completes the pop Step deferred: the last leaf moves into the
// vacant root and sifts down. Only the heap length changes; the node left
// past it is dead and overwritten by the next push.
func (e *Engine) fillHole() {
	e.hole = false
	e.nheap--
	if last := e.nheap; last > 0 {
		e.heap[0] = e.heap[last]
		e.siftDown(0)
	}
}

// lower moves slot id's queued node to the earlier key n and sifts it
// up, filling a vacant root first so the sift never compares against it.
func (e *Engine) lower(id int32, n node) {
	if e.hole {
		e.fillHole()
	}
	i := int(e.slots[id].heapIdx)
	e.heap[i] = n
	e.siftUp(i)
}

// removeAt deletes the node at heap index i (used by Cancel).
func (e *Engine) removeAt(i int) {
	h := e.heap
	removed := h[i].id
	e.nheap--
	if last := e.nheap; i < last {
		moved := h[last]
		h[i] = moved
		e.siftDown(i)
		if e.slots[moved.id].heapIdx == int32(i) {
			e.siftUp(i)
		}
	}
	e.slots[removed].heapIdx = -1
}
