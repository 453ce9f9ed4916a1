package sim

import (
	"testing"

	"pftk/internal/pkt"
)

// holdDelay is the one-way delay of the benchmark's packet stream, the
// population workload's 40-ms bottleneck.
const holdDelay = 0.04

// holdEngine returns an engine holding farTimers timers due far beyond
// the benchmark's horizon and a stream of inFlight packets spread evenly
// over one holdDelay, each of which resends itself on delivery: the
// shape of an N-flow run, where every RTO timer is pending and every
// packet is in propagation.
func holdEngine(farTimers, inFlight int) *Engine {
	e := new(Engine)
	for i := 0; i < farTimers; i++ {
		e.Schedule(1e9+float64(i), nop)
	}
	lane := e.Lane(holdDelay)
	var resend func(pkt.Packet)
	resend = func(p pkt.Packet) { lane.SchedulePacket(resend, p) }
	for i := 0; i < inFlight; i++ {
		p := pkt.Packet{Seq: uint64(i)}
		e.Schedule(float64(i)*holdDelay/float64(inFlight), func() { lane.SchedulePacket(resend, p) })
	}
	for i := 0; i < inFlight; i++ {
		e.Step()
	}
	return e
}

// BenchmarkSimHold is the sim.Step rung of the simulator ladder under
// the classic hold model: each op fires one event and schedules one,
// with 1,000 far-future timers pending and 64 packets in propagation.
func BenchmarkSimHold(b *testing.B) {
	e := holdEngine(1000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue drained")
		}
	}
}

// TestLaneDeliveryZeroAlloc: once a lane's ring is warm, delivering a
// packet and scheduling the next on the lane allocates nothing.
func TestLaneDeliveryZeroAlloc(t *testing.T) {
	e := holdEngine(100, 16)
	allocs := testing.AllocsPerRun(500, func() {
		if !e.Step() {
			t.Fatal("queue drained")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state lane delivery allocates %.1f objects per op, want 0", allocs)
	}
}
