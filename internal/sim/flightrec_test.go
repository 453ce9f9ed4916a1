package sim

import (
	"strings"
	"testing"
)

func TestFlightRecorderNilIsSafe(t *testing.T) {
	var f *FlightRecorder
	f.Note(FlightFire, 1, 1, 1, "")
	if f.Len() != 0 || f.Total() != 0 || f.Events() != nil {
		t.Fatal("nil recorder reports state")
	}
	if s := f.String(); !strings.Contains(s, "0 retained of 0 recorded") {
		t.Fatalf("nil recorder dump = %q", s)
	}
}

func TestFlightRecorderRecordsEngineOps(t *testing.T) {
	f := NewFlightRecorder(16)
	var e Engine
	e.SetFlightRecorder(f)
	if e.FlightRecorder() != f {
		t.Fatal("FlightRecorder accessor did not return the attached recorder")
	}
	e.Schedule(1, func() {})
	ev := e.Schedule(2, func() {})
	e.Cancel(ev)
	e.Run()

	events := f.Events()
	kinds := make([]FlightKind, len(events))
	for i, ev := range events {
		kinds[i] = ev.Kind
	}
	want := []FlightKind{FlightSchedule, FlightSchedule, FlightCancel, FlightFire}
	if len(kinds) != len(want) {
		t.Fatalf("recorded %d events (%v), want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
	// The cancel entry carries the cancelled event's fire time and seq.
	if c := events[2]; !(c.At > 1.5) || c.Seq != 1 {
		t.Errorf("cancel entry = %+v, want at=2 seq=1", c)
	}
	// The fire entry is stamped with the engine clock at fire time.
	if fire := events[3]; !(fire.Now > 0.5) || fire.Seq != 0 {
		t.Errorf("fire entry = %+v, want now=1 seq=0", fire)
	}
}

func TestFlightRecorderRingOverwritesOldest(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Note(FlightFire, float64(i), float64(i), uint64(i), "")
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	if f.Total() != 10 {
		t.Fatalf("Total = %d, want 10", f.Total())
	}
	events := f.Events()
	for i, ev := range events {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest-first survivors)", i, ev.Seq, want)
		}
	}
}

func TestFlightRecorderDumpFormat(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Note(FlightSchedule, 0, 0.5, 3, "")
	f.Note(FlightDrop, 0.25, 0.25, 0, "fifo")
	s := f.String()
	for _, want := range []string{"2 retained of 2 recorded", "sched", "seq=3", "drop", "fifo"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %q:\n%s", want, s)
		}
	}
}

func TestFlightKindStrings(t *testing.T) {
	cases := map[FlightKind]string{
		FlightSchedule:  "sched",
		FlightFire:      "fire",
		FlightCancel:    "cancel",
		FlightDrop:      "drop",
		FlightKind(200): "kind(200)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("FlightKind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

// TestStepZeroAllocWithFlightRecorder pins the acceptance criterion
// that tracing infrastructure leaves the engine hot path at zero
// steady-state allocations — both detached (the default) and with a
// recorder attached, since Note only writes preallocated ring slots.
func TestStepZeroAllocWithFlightRecorder(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *FlightRecorder
	}{
		{"detached", nil},
		{"attached", NewFlightRecorder(64)},
	} {
		var e Engine
		e.SetFlightRecorder(tc.f)
		var tick func()
		tick = func() { e.After(0.001, tick) }
		e.After(0.001, tick)
		// Warm the arena and the ring.
		for i := 0; i < 200; i++ {
			e.Step()
		}
		allocs := testing.AllocsPerRun(500, func() {
			e.Step()
		})
		if allocs != 0 {
			t.Errorf("%s: Step allocates %.1f objects per event, want 0", tc.name, allocs)
		}
	}
}

// TestFlightRecorderSeesTimerAsCancelPlusSchedule: a lazily re-keyed
// timer records exactly what a cancel-and-reschedule would: a schedule
// per arm, a cancel of the replaced deadline per rearm or Stop, and one
// fire at the final deadline. Settling the stale node records nothing.
func TestFlightRecorderSeesTimerAsCancelPlusSchedule(t *testing.T) {
	f := NewFlightRecorder(16)
	var e Engine
	e.SetFlightRecorder(f)
	tm := e.NewTimer(func() {})
	tm.Reset(1)
	tm.Reset(3)
	tm.Stop()
	tm.Reset(2)
	e.Run()

	type entry struct {
		kind FlightKind
		at   float64
		seq  uint64
	}
	want := []entry{
		{FlightSchedule, 1, 0},
		{FlightCancel, 1, 0}, {FlightSchedule, 3, 1},
		{FlightCancel, 3, 1},
		{FlightSchedule, 2, 2},
		{FlightFire, 2, 2},
	}
	events := f.Events()
	if len(events) != len(want) {
		t.Fatalf("recorded %d entries (%+v), want %d", len(events), events, len(want))
	}
	for i, w := range want {
		if ev := events[i]; ev.Kind != w.kind || ev.At < w.at || ev.At > w.at || ev.Seq != w.seq {
			t.Errorf("entry %d = %+v, want %v at=%g seq=%d", i, ev, w.kind, w.at, w.seq)
		}
	}
}
