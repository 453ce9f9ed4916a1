package sim

import "testing"

// TestEngineCountsFiredAndCancelled pins the engine's own counters: a
// double cancel counts once, and the pending high-water mark is the
// depth the schedules reached.
func TestEngineCountsFiredAndCancelled(t *testing.T) {
	var e Engine
	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = e.Schedule(float64(i+1), func() {})
	}
	e.Cancel(evs[2])
	e.Cancel(evs[2]) // double cancel: counted once
	e.Run()
	if e.Fired() != 4 {
		t.Errorf("Fired() = %d, want 4", e.Fired())
	}
	if e.Cancels() != 1 {
		t.Errorf("Cancels() = %d, want 1", e.Cancels())
	}
	if e.PeakPending() != 5 {
		t.Errorf("PeakPending() = %d, want 5", e.PeakPending())
	}
}

// TestPeakPendingCountsReschedule pins that the high-water mark sees
// events scheduled from inside a callback, and that a timer Reset is a
// cancel plus a schedule.
func TestPeakPendingCountsReschedule(t *testing.T) {
	var e Engine
	e.Schedule(1, func() {
		e.After(1, func() {})
		e.After(2, func() {})
	})
	e.Schedule(5, func() {})
	tm := e.NewTimer(func() {})
	tm.Reset(10)
	tm.Reset(20)
	// Three pending (two events, one timer) until the first event fires
	// and leaves two more behind it: four.
	e.Run()
	if e.PeakPending() != 4 {
		t.Errorf("PeakPending() = %d, want 4", e.PeakPending())
	}
	if e.Cancels() != 1 {
		t.Errorf("Cancels() = %d, want 1 (the displaced timer deadline)", e.Cancels())
	}
	if e.Fired() != 5 || e.Pending() != 0 {
		t.Errorf("Fired() = %d, Pending() = %d, want 5 and 0", e.Fired(), e.Pending())
	}
}

// TestRunUntilStopDuringInFlightEvent pins the documented Stop semantics:
// when an event stops the engine, RunUntil must NOT advance the clock to
// the deadline — the simulation froze at the in-flight event's time.
func TestRunUntilStopDuringInFlightEvent(t *testing.T) {
	var e Engine
	e.Schedule(1, func() {})
	e.Schedule(2, func() { e.Stop() })
	e.Schedule(3, func() {})
	n := e.RunUntil(10)
	if n != 2 {
		t.Errorf("fired %d events, want 2", n)
	}
	if e.Fired() != 2 {
		t.Errorf("Fired() = %d, want 2", e.Fired())
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
	if e.Cancels() != 1 || e.Fired() != 2 {
		t.Errorf("Cancels() = %d, Fired() = %d, want 1 and 2", e.Cancels(), e.Fired())
	}
	if e.Now() != 5 {
		t.Errorf("clock = %g, want 5", e.Now())
	}
}

// TestRunUntilDeadlineBeforeNextEvent: pausing before the next event
// advances the clock to the deadline without firing anything.
func TestRunUntilDeadlineBeforeNextEvent(t *testing.T) {
	var e Engine
	e.Schedule(10, func() {})
	if n := e.RunUntil(4); n != 0 {
		t.Errorf("fired %d, want 0", n)
	}
	if e.Fired() != 0 {
		t.Errorf("Fired() = %d, want 0", e.Fired())
	}
	if e.Now() != 4 {
		t.Errorf("clock = %g, want 4", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}
