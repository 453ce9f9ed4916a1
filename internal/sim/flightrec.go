package sim

import (
	"fmt"
	"io"
	"strings"
)

// FlightKind tags one flight-recorder entry with the engine operation
// that produced it.
type FlightKind uint8

const (
	// FlightSchedule records a successful Schedule, SchedulePacket,
	// After or Lane.SchedulePacket.
	FlightSchedule FlightKind = iota
	// FlightFire records an event about to run its callback. It is
	// written before the callback executes, so a panicking event leaves
	// its own fire entry as the newest record in the dump.
	FlightFire
	// FlightCancel records Cancel removing a still-pending event.
	FlightCancel
	// FlightDrop records a model-level discard (a netem loss or queue
	// drop), labelled by the drop site.
	FlightDrop
)

// String names the kind for dumps: sched, fire, cancel, drop.
func (k FlightKind) String() string {
	switch k {
	case FlightSchedule:
		return "sched"
	case FlightFire:
		return "fire"
	case FlightCancel:
		return "cancel"
	case FlightDrop:
		return "drop"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FlightEvent is one fixed-size flight-recorder entry.
type FlightEvent struct {
	// Kind is the recorded operation.
	Kind FlightKind
	// Now is the engine clock when the entry was written.
	Now float64
	// At is the event's fire time (equal to Now for fire and drop
	// entries).
	At float64
	// Seq is the event's FIFO sequence number; 0 for drop entries,
	// which are not heap events.
	Seq uint64
	// Label names the site for drop entries ("loss", "fifo"); empty
	// otherwise. Callers pass constant strings so recording stays
	// allocation-free.
	Label string
}

// defaultFlightEvents sizes the ring when NewFlightRecorder is given a
// non-positive capacity: enough to reconstruct the last few RTTs of a
// simulation without holding a whole run.
const defaultFlightEvents = 256

// FlightRecorder is a fixed ring of the engine's most recent operations
// — a black box to dump when a simulation panics or trips an
// invariant. It allocates only at construction; Note writes into the
// preallocated ring, preserving the engine's zero-allocation hot path.
//
// Like the Engine itself it is single-goroutine: attach one recorder
// per engine and dump it from the goroutine driving the simulation
// (the panic-recovery path runs there too).
type FlightRecorder struct {
	ring  []FlightEvent
	next  int
	total uint64
}

// NewFlightRecorder returns a recorder retaining the last k operations
// (the default capacity if k <= 0).
func NewFlightRecorder(k int) *FlightRecorder {
	if k <= 0 {
		k = defaultFlightEvents
	}
	return &FlightRecorder{ring: make([]FlightEvent, 0, k)}
}

// Note appends one entry, overwriting the oldest once the ring is
// full. Nil-safe: a nil recorder ignores the call, so engine call
// sites pay one pointer check when recording is off. The fields are
// stored one by one into the ring slot, so they go from the caller's
// registers to the ring without a FlightEvent built and block-copied on
// the stack.
//
//pftk:hotpath
func (f *FlightRecorder) Note(kind FlightKind, now, at float64, seq uint64, label string) {
	if f == nil {
		return
	}
	if len(f.ring) < cap(f.ring) {
		// Still filling: next is the first unused slot.
		f.ring = f.ring[:len(f.ring)+1]
	}
	ev := &f.ring[f.next]
	ev.Kind, ev.Now, ev.At, ev.Seq, ev.Label = kind, now, at, seq, label
	f.next++
	if f.next == cap(f.ring) {
		f.next = 0
	}
	f.total++
}

// Len returns the number of retained entries. Nil-safe.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Total returns the number of entries ever recorded, including those
// the ring has overwritten. Nil-safe.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.total
}

// Events returns the retained entries oldest first. Nil-safe; the
// slice is a copy.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil || len(f.ring) == 0 {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.ring))
	if len(f.ring) == cap(f.ring) {
		out = append(out, f.ring[f.next:]...)
		out = append(out, f.ring[:f.next]...)
	} else {
		out = append(out, f.ring...)
	}
	return out
}

// Dump writes the retained entries oldest first, one line each, for a
// panic or invariant-failure report. Nil-safe.
func (f *FlightRecorder) Dump(w io.Writer) error {
	events := f.Events()
	if _, err := fmt.Fprintf(w, "flight recorder: %d retained of %d recorded\n", len(events), f.Total()); err != nil {
		return err
	}
	for i, ev := range events {
		var err error
		switch ev.Kind {
		case FlightDrop:
			_, err = fmt.Fprintf(w, "  [%3d] %-6s now=%.9f %s\n", i, ev.Kind, ev.Now, ev.Label)
		default:
			_, err = fmt.Fprintf(w, "  [%3d] %-6s now=%.9f at=%.9f seq=%d\n", i, ev.Kind, ev.Now, ev.At, ev.Seq)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// String renders Dump into a string, for embedding in panic values and
// log lines.
func (f *FlightRecorder) String() string {
	var sb strings.Builder
	// strings.Builder writes cannot fail.
	_ = f.Dump(&sb)
	return sb.String()
}
