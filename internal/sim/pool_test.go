package sim

// Event-pool edge cases: the arena/free-list/generation machinery behind
// the zero-allocation engine rewrite. These tests pin the safety
// properties the pool must keep while recycling slots — stale handles are
// inert, FIFO ordering survives recycling, and a long randomized
// schedule/cancel soak agrees event-for-event with the original
// container/heap implementation kept below as an oracle.

import (
	"container/heap"
	"fmt"
	"strings"
	"testing"

	"pftk/internal/pkt"
)

// TestCancelThenRescheduleSlotReuse: cancelling an event recycles its
// arena slot; a later Schedule must reuse that slot (LIFO free list), and
// the stale handle from the cancelled event must not be able to cancel
// the slot's new occupant.
func TestCancelThenRescheduleSlotReuse(t *testing.T) {
	var e Engine
	stale := e.Schedule(1, nop)
	if !e.Cancel(stale) {
		t.Fatal("first Cancel should succeed")
	}
	fired := false
	fresh := e.Schedule(2, func() { fired = true })
	if got := e.PoolSize(); got != 1 {
		t.Fatalf("PoolSize = %d, want 1 (slot must be reused, not grown)", got)
	}
	if e.Cancel(stale) {
		t.Error("stale handle cancelled the slot's new occupant")
	}
	if !e.Scheduled(fresh) {
		t.Error("fresh event lost its slot to a stale cancel")
	}
	e.Run()
	if !fired {
		t.Error("fresh event never fired")
	}
}

// TestTimerResetInsideOwnCallback: a Timer that rearms itself from inside
// its own fire callback must behave like a periodic timer — each Reset
// observes the just-fired deadline as already gone (no pending cancel)
// and arms a fresh one.
func TestTimerResetInsideOwnCallback(t *testing.T) {
	var e Engine
	count := 0
	var tm *Timer
	tm = e.NewTimer(func() {
		count++
		if tm.Pending() {
			t.Error("timer still pending inside its own callback")
		}
		if count < 3 {
			if tm.Reset(1) {
				t.Error("Reset inside the fire callback cancelled a phantom deadline")
			}
		}
	})
	tm.Reset(1)
	e.Run()
	if count != 3 {
		t.Errorf("timer fired %d times, want 3", count)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %g, want 3", e.Now())
	}
}

// TestTimerStopAfterFireCancelsNothing: once a timer fires it is
// disarmed, so Stop on it cancels nothing (no report, no Cancelled
// hook) and leaves every other pending event alone.
func TestTimerStopAfterFireCancelsNothing(t *testing.T) {
	var e Engine
	tm := e.NewTimer(nop)
	tm.Reset(1)
	e.Run()
	cancelled := e.Cancels()
	other := e.Schedule(5, nop)
	if tm.Stop() {
		t.Error("Stop on a fired timer reported a cancel")
	}
	if n := e.Cancels() - cancelled; n != 0 || e.Pending() != 1 {
		t.Errorf("Stop on a fired timer: %d cancels, %d pending, want 0 and 1", n, e.Pending())
	}
	if !e.Scheduled(other) {
		t.Error("Stop on a fired timer cancelled an unrelated event")
	}
	if n := e.Run(); n != 1 {
		t.Errorf("fired %d, want 1", n)
	}
}

// TestEqualTimesFIFOAcrossRecycling: FIFO ordering of simultaneous events
// is carried by the sequence number, which must keep increasing across
// slot recycling. Three rounds of same-time batches all drawing from the
// same recycled slots must each fire in schedule order.
func TestEqualTimesFIFOAcrossRecycling(t *testing.T) {
	var e Engine
	for round := 0; round < 3; round++ {
		at := float64(round + 1)
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			e.Schedule(at, func() { order = append(order, i) })
		}
		e.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("round %d: simultaneous events out of FIFO order: %v", round, order)
			}
		}
	}
	if got := e.PoolSize(); got != 8 {
		t.Errorf("PoolSize = %d, want 8 (rounds must recycle, not grow)", got)
	}
}

// TestScheduleStepSteadyStateZeroAlloc is the tentpole guard: once the
// arena and heap are warm, a schedule+fire cycle allocates nothing.
func TestScheduleStepSteadyStateZeroAlloc(t *testing.T) {
	var e Engine
	fill(&e, 64)
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(500, func() {
		e.Schedule(e.Now()+1, nop)
		if !e.Step() {
			t.Fatal("scheduled event did not fire")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule+Step allocates %.1f objects per op, want 0", allocs)
	}
}

// TestTimerResetZeroAlloc: rearming a warm timer is allocation-free —
// the property that lets the Reno sender Reset its RTO on every ACK.
func TestTimerResetZeroAlloc(t *testing.T) {
	var e Engine
	tm := e.NewTimer(nop)
	tm.Reset(1)
	allocs := testing.AllocsPerRun(500, func() {
		tm.Reset(1)
	})
	if allocs != 0 {
		t.Errorf("Timer.Reset allocates %.1f objects per op, want 0", allocs)
	}
}

// TestTimerResetStopSteadyStateZeroAlloc: the receiver's delayed-ACK
// pattern (stop, rearm later, rearm earlier) and the engine settling the
// stale node when it reaches the root allocate nothing once warm.
func TestTimerResetStopSteadyStateZeroAlloc(t *testing.T) {
	var e Engine
	tm := e.NewTimer(nop)
	e.Schedule(0, nop)
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(500, func() {
		tm.Reset(2)
		tm.Stop()
		tm.Reset(3)
		tm.Reset(1)
		e.Schedule(e.Now()+1.5, nop)
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Timer Reset/Stop allocates %.1f objects per op, want 0", allocs)
	}
}

// TestTimerLazyRekeyFiresAtDeadline: a node left behind by a later Reset
// or by Stop never fires early and is not counted as an event: it is
// re-keyed or dropped when it reaches the root, and StepUntil with a
// deadline between the stale key and the real deadline fires nothing.
func TestTimerLazyRekeyFiresAtDeadline(t *testing.T) {
	var e Engine
	var at []float64
	tm := e.NewTimer(func() { at = append(at, e.Now()) })
	idle := e.NewTimer(func() { t.Error("stopped timer fired") })
	tm.Reset(1)
	idle.Reset(0.5)
	idle.Stop()
	tm.Reset(3) // the node stays keyed at 1
	if e.StepUntil(2) {
		t.Fatal("StepUntil(2) fired the timer rearmed for 3")
	}
	if e.Now() != 0 || e.Fired() != 0 || e.Pending() != 1 {
		t.Fatalf("after StepUntil(2): clock %g, %d fired, %d pending, want 0, 0, 1", e.Now(), e.Fired(), e.Pending())
	}
	e.Run()
	if len(at) != 1 || at[0] != 3 || e.Fired() != 1 {
		t.Errorf("timer fired at %v (%d events), want [3] once", at, e.Fired())
	}
}

// TestAfterNegativeDelayPanicMessage: After with a negative delay must
// report the offending delay itself, not a confusing absolute-time
// comparison ("schedule at %g before now %g") computed from it.
func TestAfterNegativeDelayPanicMessage(t *testing.T) {
	var e Engine
	e.Schedule(10, nop)
	e.Run() // advance the clock so at = now + d stays positive
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for negative delay")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "negative delay -0.5") {
			t.Errorf("panic %q does not name the negative delay", msg)
		}
		if strings.Contains(msg, "before now") {
			t.Errorf("panic %q still reports the misleading absolute-time comparison", msg)
		}
	}()
	e.After(-0.5, nop)
}

// BenchmarkTimerReset measures the per-rearm cost of a warm timer — the
// sender's per-ACK RTO restart path.
func BenchmarkTimerReset(b *testing.B) {
	var e Engine
	tm := e.NewTimer(nop)
	tm.Reset(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(1)
	}
}

// --- container/heap oracle ---
//
// oracleEngine is the engine this PR replaced: a binary heap of
// per-event pointers via container/heap, one allocation per Schedule. It
// is kept verbatim in spirit (same (time, seq) ordering contract, same
// cancel semantics) as a differential-testing oracle for the pooled
// engine.

type oracleEvent struct {
	at        float64
	seq       uint64
	fn        func()
	index     int
	cancelled bool
	fired     bool
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at < h[j].at {
		return true
	}
	if h[i].at > h[j].at {
		return false
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	ev := x.(*oracleEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type oracleEngine struct {
	now     float64
	heap    oracleHeap
	nextSeq uint64
}

func (o *oracleEngine) schedule(at float64, fn func()) *oracleEvent {
	ev := &oracleEvent{at: at, seq: o.nextSeq, fn: fn}
	o.nextSeq++
	heap.Push(&o.heap, ev)
	return ev
}

func (o *oracleEngine) cancel(ev *oracleEvent) bool {
	if ev.cancelled || ev.fired {
		return false
	}
	ev.cancelled = true
	heap.Remove(&o.heap, ev.index)
	return true
}

func (o *oracleEngine) stepUntil(deadline float64) bool {
	if len(o.heap) == 0 || o.heap[0].at > deadline {
		return false
	}
	return o.step()
}

func (o *oracleEngine) step() bool {
	if len(o.heap) == 0 {
		return false
	}
	ev := heap.Pop(&o.heap).(*oracleEvent)
	ev.fired = true
	o.now = ev.at
	ev.fn()
	return true
}

// checkLengths compares the engine's pending count with the oracle's
// queue depth, and requires every arena slot to be exactly one of: queued
// in the heap (outside a vacant root), on the free list, or the slot of
// an idle lane or timer. A queued lane slot must belong to a non-empty
// lane; a timer slot is never on the free list, and an armed timer's
// node is queued with a key no later than its deadline. The heap's
// plain events, every lane's items and the armed timers must add up to
// the pending count.
func checkLengths(t *testing.T, op int, e *Engine, oracle int) {
	t.Helper()
	if e.Pending() != oracle {
		t.Fatalf("op %d: pending %d vs oracle %d", op, e.Pending(), oracle)
	}
	uses := make([]int, len(e.slots))
	events := 0
	first := 0
	if e.hole {
		first = 1
	}
	for i := first; i < e.nheap; i++ {
		id := e.heap[i].id
		uses[id]++
		s := &e.slots[id]
		if int(s.heapIdx) != i {
			t.Fatalf("op %d: heap[%d] holds slot %d whose heapIdx is %d", op, i, id, s.heapIdx)
		}
		switch {
		case s.lane != nil:
			if s.lane.n == 0 {
				t.Fatalf("op %d: empty lane %g is queued in the heap", op, s.lane.delay)
			}
			events += s.lane.n
		case s.timer != nil:
			if tm := s.timer; tm.armed {
				events++
				if nodeLess(node{at: tm.at, seq: tm.seq}, e.heap[i]) {
					t.Fatalf("op %d: timer slot %d queued at (%g, %d), after its deadline (%g, %d)", op, id, e.heap[i].at, e.heap[i].seq, tm.at, tm.seq)
				}
			}
		default:
			events++
		}
	}
	for _, id := range e.free[:e.nfree] {
		uses[id]++
		if s := &e.slots[id]; s.lane != nil || s.timer != nil {
			t.Fatalf("op %d: lane or timer slot %d is on the free list", op, id)
		}
	}
	for id := range e.slots {
		s := &e.slots[id]
		if s.heapIdx >= 0 {
			continue
		}
		switch {
		case s.lane != nil:
			uses[id]++
			if s.lane.n != 0 {
				t.Fatalf("op %d: lane %g holds %d items but is not queued", op, s.lane.delay, s.lane.n)
			}
		case s.timer != nil:
			uses[id]++
			if s.timer.armed {
				t.Fatalf("op %d: armed timer slot %d is not queued", op, id)
			}
		}
	}
	for id, n := range uses {
		if n != 1 {
			t.Fatalf("op %d: slot %d is accounted %d times (queued, free, idle lane or idle timer), want once", op, id, n)
		}
	}
	if events != e.Pending() {
		t.Fatalf("op %d: heap, lanes and timers hold %d events, Pending reports %d", op, events, e.Pending())
	}
}

// TestRandomizedScheduleCancelSoakVsOracle drives the pooled engine and
// the container/heap oracle through the same long pseudo-random sequence
// of schedule / cancel / step operations — including cancels through
// stale handles whose slots have been recycled, lane deliveries on a few
// constant delays and on one private lane fed non-decreasing times
// (plain events to the oracle), events whose callbacks cancel a heap
// event and schedule a lane delivery or rearm a timer while the fired
// root is still vacant, timers rearmed later and earlier and stopped (a
// cancel and a fresh event to the oracle), and StepUntil with a deadline
// between a timer's stale node and its deadline — and requires identical
// fire order, identical cancel outcomes, and identical clocks
// throughout, with the engine's pending count and slot accounting
// checked after every operation, the final drain included. Coarsely
// quantized fire times and delays force frequent ties so the seq
// tiebreak is exercised across recycling and between lanes, timers and
// the heap.
func TestRandomizedScheduleCancelSoakVsOracle(t *testing.T) {
	rng := NewRNG(0xdecade)
	var e Engine
	var o oracleEngine
	var got, want []int
	var gotCancels, wantCancels []bool

	type pair struct {
		ev Event
		oe *oracleEvent
	}
	var handles []pair // includes stale entries on purpose
	token := 0

	delays := []float64{0, 0.25, 1.5, 2.5}
	lanes := make([]*Lane, len(delays))
	for i, d := range delays {
		lanes[i] = e.Lane(d)
	}
	laneFired := func(p pkt.Packet) { got = append(got, int(p.Seq)) }
	private := e.NewLane()
	privateLast := 0.0

	// Each timer fires its own token; the oracle models it as one event
	// handle, cancelled and replaced on every rearm.
	type oracleTimer struct {
		tm  *Timer
		cur *oracleEvent
		tok int
	}
	timers := make([]*oracleTimer, 3)
	for k := range timers {
		ot := &oracleTimer{tok: token}
		token++
		ot.tm = e.NewTimer(func() { got = append(got, ot.tok) })
		timers[k] = ot
	}
	oracleReset := func(ot *oracleTimer, at float64) bool {
		cancelled := ot.cur != nil && o.cancel(ot.cur)
		ot.cur = o.schedule(at, func() { want = append(want, ot.tok) })
		return cancelled
	}

	// checkFired compares the newest fire and the clocks after op.
	checkFired := func(op int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("op %d: fired %d events, oracle fired %d", op, len(got), len(want))
		}
		if n := len(got); n > 0 && got[n-1] != want[n-1] {
			t.Fatalf("op %d: fire order diverges at %d: pooled=%d oracle=%d", op, n-1, got[n-1], want[n-1])
		}
		if e.Now() < o.now || e.Now() > o.now {
			t.Fatalf("op %d: clock %g vs oracle %g", op, e.Now(), o.now)
		}
	}

	const ops = 30000
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(26); {
		case op < 6: // schedule a new event at a coarse future time
			tok := token
			token++
			at := e.Now() + float64(rng.Intn(40))/4
			ev := e.Schedule(at, func() { got = append(got, tok) })
			oe := o.schedule(at, func() { want = append(want, tok) })
			handles = append(handles, pair{ev, oe})
		case op < 8: // schedule an event that cancels and reschedules when it fires
			if len(handles) == 0 {
				break
			}
			tok, next := token, token+1
			token += 2
			target := handles[rng.Intn(len(handles))]
			k := rng.Intn(len(lanes))
			at := e.Now() + float64(rng.Intn(40))/4
			ev := e.Schedule(at, func() {
				got = append(got, tok)
				gotCancels = append(gotCancels, e.Cancel(target.ev))
				lanes[k].SchedulePacket(laneFired, pkt.Packet{Seq: uint64(next)})
			})
			oe := o.schedule(at, func() {
				want = append(want, tok)
				wantCancels = append(wantCancels, o.cancel(target.oe))
				o.schedule(o.now+delays[k], func() { want = append(want, next) })
			})
			handles = append(handles, pair{ev, oe})
		case op < 10: // schedule a lane delivery; a plain event to the oracle
			tok, k := token, rng.Intn(len(lanes))
			token++
			lanes[k].SchedulePacket(laneFired, pkt.Packet{Seq: uint64(tok)})
			o.schedule(e.Now()+delays[k], func() { want = append(want, tok) })
		case op < 16: // cancel a random handle, possibly stale
			if len(handles) == 0 {
				break
			}
			p := handles[rng.Intn(len(handles))]
			cp, co := e.Cancel(p.ev), o.cancel(p.oe)
			if cp != co {
				t.Fatalf("op %d: Cancel disagreement: pooled=%v oracle=%v", i, cp, co)
			}
		case op < 20: // fire one event on both
			se, so := e.Step(), o.step()
			if se != so {
				t.Fatalf("op %d: Step disagreement: pooled=%v oracle=%v", i, se, so)
			}
		case op < 22: // rearm a timer, later or earlier than its deadline
			ot := timers[rng.Intn(len(timers))]
			at := e.Now() + float64(rng.Intn(40))/4
			cp, co := ot.tm.ResetAt(at), oracleReset(ot, at)
			if cp != co {
				t.Fatalf("op %d: timer Reset disagreement: pooled=%v oracle=%v", i, cp, co)
			}
		case op < 23: // stop a timer
			ot := timers[rng.Intn(len(timers))]
			cp, co := ot.tm.Stop(), ot.cur != nil && o.cancel(ot.cur)
			if cp != co {
				t.Fatalf("op %d: timer Stop disagreement: pooled=%v oracle=%v", i, cp, co)
			}
		case op < 24: // a private-lane delivery at a non-decreasing time
			tok := token
			token++
			at := max(privateLast, e.Now()) + float64(rng.Intn(8))/4
			privateLast = at
			private.SchedulePacketAt(at, laneFired, pkt.Packet{Seq: uint64(tok)})
			o.schedule(at, func() { want = append(want, tok) })
		case op < 25: // StepUntil, preferably between a stale timer node and its deadline
			deadline := e.Now() + float64(rng.Intn(8))/4
			for _, ot := range timers {
				if i := e.slots[ot.tm.id].heapIdx; ot.tm.armed && i >= 0 && e.heap[i].at < ot.tm.at {
					deadline = (e.heap[i].at + ot.tm.at) / 2
					break
				}
			}
			se, so := e.StepUntil(deadline), o.stepUntil(deadline)
			if se != so {
				t.Fatalf("op %d: StepUntil(%g) disagreement: pooled=%v oracle=%v", i, deadline, se, so)
			}
		default: // schedule an event that rearms a timer when it fires
			tok := token
			token++
			ot := timers[rng.Intn(len(timers))]
			at := e.Now() + float64(rng.Intn(40))/4
			d := float64(rng.Intn(40)) / 4
			ev := e.Schedule(at, func() {
				got = append(got, tok)
				gotCancels = append(gotCancels, ot.tm.Reset(d))
			})
			oe := o.schedule(at, func() {
				want = append(want, tok)
				wantCancels = append(wantCancels, oracleReset(ot, o.now+d))
			})
			handles = append(handles, pair{ev, oe})
		}
		checkLengths(t, i, &e, len(o.heap))
		checkFired(i)
	}
	for e.Step() {
		if !o.step() {
			t.Fatal("oracle drained before pooled engine")
		}
		checkLengths(t, ops, &e, len(o.heap))
		checkFired(ops)
	}
	if o.step() {
		t.Fatal("pooled engine drained before oracle")
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, oracle fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fire order diverges at %d: pooled=%d oracle=%d", i, got[i], want[i])
		}
	}
	if fmt.Sprint(gotCancels) != fmt.Sprint(wantCancels) {
		t.Fatalf("in-callback cancel outcomes diverge:\npooled %v\noracle %v", gotCancels, wantCancels)
	}
	if e.Now() < o.now || e.Now() > o.now {
		t.Fatalf("clock %g vs oracle %g", e.Now(), o.now)
	}
	t.Logf("soak: %d events fired in lockstep, pool working set %d slots", len(got), e.PoolSize())
}
