package sim

import (
	"fmt"
	"math"
)

// Timer is a reusable rearmable timer: one callback, captured once at
// construction, scheduled again and again without allocating. Rearming a
// pending timer implicitly cancels the previous deadline, so callers like
// a TCP sender's retransmission timeout can Reset on every ACK with zero
// per-rearm garbage.
//
// A timer owns one arena slot for life, and its heap node is re-keyed
// lazily (see "Timers" in the package comment): Reset to a later
// deadline and Stop leave the node where it is, and the engine settles
// it when it reaches the root. No Event handle is ever issued for the
// slot, so no stale handle can reach it.
//
// A Timer belongs to the single goroutine driving its Engine, like the
// Engine itself.
type Timer struct {
	eng   *Engine
	fn    func()
	id    int32   // the arena slot the timer owns
	at    float64 // armed deadline
	seq   uint64  // sequence number drawn when the deadline was armed
	armed bool
}

// NewTimer returns a stopped timer that will run fn each time an armed
// deadline expires. The one callback allocation happens here, along with
// the timer's arena slot; Reset, ResetAt and Stop are allocation-free
// thereafter.
func (e *Engine) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	t := &Timer{eng: e, fn: fn, id: int32(len(e.slots))}
	e.slots = append(e.slots, slot{timer: t, heapIdx: -1})
	return t
}

// Reset (re)arms the timer to fire after delay d seconds, cancelling any
// pending deadline first. A negative or NaN delay panics (see
// Engine.After). It reports whether a pending deadline was cancelled.
//
//pftk:hotpath
func (t *Timer) Reset(d float64) bool {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("sim: After with negative delay %g", d))
	}
	return t.arm(t.eng.now + d)
}

// ResetAt (re)arms the timer to fire at absolute time at, cancelling any
// pending deadline first. A time before Now panics, as in
// Engine.Schedule. It reports whether a pending deadline was cancelled.
func (t *Timer) ResetAt(at float64) bool {
	if math.IsNaN(at) || at < t.eng.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", at, t.eng.now))
	}
	return t.arm(at)
}

// Stop cancels the pending deadline, if any, and reports whether one was
// cancelled. Stopping an unarmed or already-fired timer is a no-op. The
// timer's heap node stays queued until it reaches the root.
//
//pftk:hotpath
func (t *Timer) Stop() bool {
	if !t.armed {
		return false
	}
	t.armed = false
	t.eng.noteCancelled(t.at, t.seq)
	return true
}

// Pending reports whether a deadline is currently armed.
func (t *Timer) Pending() bool { return t.armed }

// arm sets the deadline (at, next seq), counting the replaced deadline
// as cancelled, and keeps the timer's heap node no later than it: a
// missing node is pushed; a queued one keyed later is lowered in place;
// one keyed earlier stays put, and takes the new key there when it is a
// leaf, with nothing below it to put out of order.
//
//pftk:hotpath
func (t *Timer) arm(at float64) bool {
	e := t.eng
	cancelled := t.armed
	if cancelled {
		e.noteCancelled(t.at, t.seq)
	}
	t.at, t.seq, t.armed = at, e.nextSeq, true
	e.nextSeq++
	if i := e.slots[t.id].heapIdx; i < 0 {
		e.push(node{at: at, seq: t.seq, id: t.id})
	} else if at < e.heap[i].at {
		e.lower(t.id, node{at: at, seq: t.seq, id: t.id})
	} else if int(i)<<2+1 >= e.nheap {
		e.heap[i] = node{at: at, seq: t.seq, id: t.id}
	}
	e.noteScheduled(at, t.seq)
	return cancelled
}
