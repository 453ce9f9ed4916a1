package sim

// Event-pool edge cases: the arena/free-list/generation machinery behind
// the zero-allocation engine rewrite. These tests pin the safety
// properties the pool must keep while recycling slots — stale handles are
// inert, FIFO ordering survives recycling, and a long randomized
// schedule/cancel soak agrees event-for-event with the original
// container/heap implementation kept below as an oracle.

import (
	"container/heap"
	"strings"
	"testing"
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

// TestStaleTimerStopAfterSlotReuse: once a timer fires, its internal
// handle is stale. If another event recycles the same arena slot, Stop on
// the fired timer must not cancel that unrelated event.
func TestStaleTimerStopAfterSlotReuse(t *testing.T) {
	var e Engine
	tm := e.NewTimer(nop)
	tm.Reset(1)
	e.Run() // timer fires; its slot returns to the free list
	other := e.Schedule(5, nop)
	if got := e.PoolSize(); got != 1 {
		t.Fatalf("PoolSize = %d, want 1 (other must reuse the timer's slot)", got)
	}
	if tm.Stop() {
		t.Error("Stop on a fired timer reported a cancel")
	}
	if !e.Scheduled(other) {
		t.Error("stale timer Stop cancelled an unrelated event in the reused slot")
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

// checkLengths compares the engine's explicit heap length with the
// oracle's queue depth, and requires every arena slot to be either
// queued or on the free list.
func checkLengths(t *testing.T, op int, e *Engine, oracle int) {
	t.Helper()
	if e.Pending() != oracle {
		t.Fatalf("op %d: pending %d vs oracle %d", op, e.Pending(), oracle)
	}
	if e.nheap+e.nfree != len(e.slots) {
		t.Fatalf("op %d: %d queued + %d free != %d slots", op, e.nheap, e.nfree, len(e.slots))
	}
}

// TestRandomizedScheduleCancelSoakVsOracle drives the pooled engine and
// the container/heap oracle through the same long pseudo-random sequence
// of schedule / cancel / step operations — including cancels through
// stale handles whose slots have been recycled — and requires identical
// fire order, identical cancel outcomes, and identical clocks throughout,
// with the engine's explicit heap length matching the oracle's queue
// depth after every operation, the final drain included. Coarsely quantized fire times force frequent ties so the seq tiebreak
// is exercised across recycling.
func TestRandomizedScheduleCancelSoakVsOracle(t *testing.T) {
	rng := NewRNG(0xdecade)
	var e Engine
	var o oracleEngine
	var got, want []int

	type pair struct {
		ev Event
		oe *oracleEvent
	}
	var handles []pair // includes stale entries on purpose
	token := 0

	const ops = 30000
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // schedule a new event at a coarse future time
			tok := token
			token++
			at := e.Now() + float64(rng.Intn(40))/4
			ev := e.Schedule(at, func() { got = append(got, tok) })
			oe := o.schedule(at, func() { want = append(want, tok) })
			handles = append(handles, pair{ev, oe})
		case op < 8: // cancel a random handle, possibly stale
			if len(handles) == 0 {
				break
			}
			p := handles[rng.Intn(len(handles))]
			cp, co := e.Cancel(p.ev), o.cancel(p.oe)
			if cp != co {
				t.Fatalf("op %d: Cancel disagreement: pooled=%v oracle=%v", i, cp, co)
			}
		default: // fire one event on both
			se, so := e.Step(), o.step()
			if se != so {
				t.Fatalf("op %d: Step disagreement: pooled=%v oracle=%v", i, se, so)
			}
		}
		checkLengths(t, i, &e, len(o.heap))
	}
	for e.Step() {
		if !o.step() {
			t.Fatal("oracle drained before pooled engine")
		}
		checkLengths(t, ops, &e, len(o.heap))
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
	if e.Now() < o.now || e.Now() > o.now {
		t.Fatalf("clock %g vs oracle %g", e.Now(), o.now)
	}
	t.Logf("soak: %d events fired in lockstep, pool working set %d slots", len(got), e.PoolSize())
}
