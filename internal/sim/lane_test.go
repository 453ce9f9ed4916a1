package sim

import (
	"math"
	"strings"
	"testing"

	"pftk/internal/pkt"
)

// TestSchedulePacketAtBackwardsPanics: a private lane is a FIFO, so a due
// time before Now, before the lane's newest item, or NaN panics, naming
// the method.
func TestSchedulePacketAtBackwardsPanics(t *testing.T) {
	deliver := func(pkt.Packet) {}
	for _, tc := range []struct {
		name string
		at   float64
	}{
		{"before now", 0.5},
		{"before the newest item", 2.5},
		{"NaN", math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Engine
			e.RunUntil(1)
			l := e.NewLane()
			l.SchedulePacketAt(3, deliver, pkt.Packet{})
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Lane.SchedulePacketAt") {
					t.Errorf("panic %q does not name Lane.SchedulePacketAt", msg)
				}
				if e.Pending() != 1 {
					t.Errorf("pending = %d after the rejected delivery, want 1", e.Pending())
				}
			}()
			l.SchedulePacketAt(tc.at, deliver, pkt.Packet{})
		})
	}
}

// TestPrivateLaneFiresInTimeOrder: private-lane deliveries interleave
// with heap events by (time, seq), ties included.
func TestPrivateLaneFiresInTimeOrder(t *testing.T) {
	var e Engine
	var order []uint64
	deliver := func(p pkt.Packet) { order = append(order, p.Seq) }
	l := e.NewLane()
	l.SchedulePacketAt(1, deliver, pkt.Packet{Seq: 1})
	e.Schedule(1, func() { order = append(order, 2) })
	l.SchedulePacketAt(1, deliver, pkt.Packet{Seq: 3})
	e.Schedule(0.5, func() { order = append(order, 0) })
	l.SchedulePacketAt(2, deliver, pkt.Packet{Seq: 4})
	e.Run()
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("fire order %v, want 0..4", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d, want 5", len(order))
	}
}

// TestPrivateLaneDeliveryZeroAlloc: once a private lane's ring is warm,
// delivering a packet and scheduling the next one allocates nothing.
func TestPrivateLaneDeliveryZeroAlloc(t *testing.T) {
	var e Engine
	l := e.NewLane()
	var resend func(pkt.Packet)
	resend = func(p pkt.Packet) { l.SchedulePacketAt(max(e.Now()+0.01*float64(1+p.Seq%3), l.last), resend, p) }
	for i := 0; i < 16; i++ {
		l.SchedulePacketAt(float64(i)*0.001, resend, pkt.Packet{Seq: uint64(i)})
	}
	for i := 0; i < 64; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(500, func() {
		if !e.Step() {
			t.Fatal("queue drained")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state private-lane delivery allocates %.1f objects per op, want 0", allocs)
	}
}
