package sim

import (
	"testing"

	"pftk/internal/obs"
)

// hookCounts wires counting hooks onto an engine and returns the
// counters.
func hookCounts(e *Engine) (fired, scheduled, cancelled *int, depthHigh *int) {
	var f, s, c, d int
	e.SetHooks(Hooks{
		EventFired: func(_ float64, pending int) {
			f++
			if pending > d {
				d = pending
			}
		},
		Scheduled: func(_ float64, pending int) {
			s++
			if pending > d {
				d = pending
			}
		},
		Cancelled: func() { c++ },
	})
	return &f, &s, &c, &d
}

func TestHooksObserveScheduleFireCancel(t *testing.T) {
	var e Engine
	fired, scheduled, cancelled, depth := hookCounts(&e)
	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = e.Schedule(float64(i+1), func() {})
	}
	e.Cancel(evs[2])
	e.Cancel(evs[2]) // double cancel: hook must fire once
	e.Run()
	if *scheduled != 5 {
		t.Errorf("scheduled hook fired %d times, want 5", *scheduled)
	}
	if *fired != 4 {
		t.Errorf("event hook fired %d times, want 4", *fired)
	}
	if *cancelled != 1 {
		t.Errorf("cancel hook fired %d times, want 1", *cancelled)
	}
	if *depth != 5 {
		t.Errorf("observed depth high-water %d, want 5", *depth)
	}
	if uint64(*fired) != e.Fired() {
		t.Errorf("hook count %d disagrees with Fired() %d", *fired, e.Fired())
	}
}

func TestHookSeesDepthAfterReschedule(t *testing.T) {
	var e Engine
	var depths []int
	e.SetHooks(Hooks{EventFired: func(_ float64, pending int) { depths = append(depths, pending) }})
	e.Schedule(1, func() { e.After(1, func() {}) })
	e.Run()
	// First event leaves its own reschedule pending; second leaves none.
	if len(depths) != 2 || depths[0] != 1 || depths[1] != 0 {
		t.Errorf("depths = %v, want [1 0]", depths)
	}
}

// TestRunUntilStopDuringInFlightEvent pins the documented Stop semantics:
// when an event stops the engine, RunUntil must NOT advance the clock to
// the deadline — the simulation froze at the in-flight event's time.
func TestRunUntilStopDuringInFlightEvent(t *testing.T) {
	var e Engine
	fired, _, _, _ := hookCounts(&e)
	e.Schedule(1, func() {})
	e.Schedule(2, func() { e.Stop() })
	e.Schedule(3, func() {})
	n := e.RunUntil(10)
	if n != 2 {
		t.Errorf("fired %d events, want 2", n)
	}
	if *fired != 2 {
		t.Errorf("hook observed %d events, want 2", *fired)
	}
	if e.Now() != 2 {
		t.Errorf("clock = %g after Stop, want 2 (must not jump to deadline)", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	// A later RunUntil picks the remaining event back up and only then
	// pads the clock to the deadline.
	if n := e.RunUntil(10); n != 1 {
		t.Errorf("resumed run fired %d, want 1", n)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %g after drain, want deadline 10", e.Now())
	}
}

// TestRunUntilCancelThenReschedule pins cancel-then-reschedule ordering:
// rescheduling a cancelled timer at the same instant must run the new
// callback exactly once, after any not-cancelled event already queued for
// that instant (FIFO by schedule order).
func TestRunUntilCancelThenReschedule(t *testing.T) {
	var e Engine
	fired, _, cancelled, _ := hookCounts(&e)
	var order []string
	old := e.Schedule(5, func() { order = append(order, "old") })
	e.Schedule(5, func() { order = append(order, "keep") })
	e.Cancel(old)
	e.Schedule(5, func() { order = append(order, "new") })
	if n := e.RunUntil(5); n != 2 {
		t.Errorf("fired %d, want 2", n)
	}
	if len(order) != 2 || order[0] != "keep" || order[1] != "new" {
		t.Errorf("order = %v, want [keep new]", order)
	}
	if *cancelled != 1 || *fired != 2 {
		t.Errorf("hooks: cancelled=%d fired=%d, want 1 and 2", *cancelled, *fired)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %g, want 5", e.Now())
	}
}

// TestRunUntilDeadlineBeforeNextEvent: pausing before the next event
// advances the clock to the deadline without firing anything.
func TestRunUntilDeadlineBeforeNextEvent(t *testing.T) {
	var e Engine
	fired, _, _, _ := hookCounts(&e)
	e.Schedule(10, func() {})
	if n := e.RunUntil(4); n != 0 {
		t.Errorf("fired %d, want 0", n)
	}
	if *fired != 0 {
		t.Errorf("hook observed %d events, want 0", *fired)
	}
	if e.Now() != 4 {
		t.Errorf("clock = %g, want 4", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineMetricsViaObsRegistry(t *testing.T) {
	reg := obs.New()
	var e Engine
	e.SetHooks(NewMetricHooks(reg))
	for i := 0; i < 8; i++ {
		e.Schedule(float64(i), func() {})
	}
	ev := e.Schedule(100, func() {})
	e.Cancel(ev)
	e.Run()
	snap := reg.Snapshot()
	if got := snap.Counter("sim.events"); got != 8 {
		t.Errorf("sim.events = %d, want 8", got)
	}
	if got := snap.Counter("sim.cancels"); got != 1 {
		t.Errorf("sim.cancels = %d, want 1", got)
	}
	if hw := snap.Gauges["sim.queue.depth"].Max; hw != 9 {
		t.Errorf("queue depth high-water = %g, want 9", hw)
	}
}
