package netem

import (
	"testing"

	"pftk/internal/pkt"
	"pftk/internal/sim"
)

// benchSink makes the delivery callback observable without capturing any
// benchmark-local state (a capture would charge a closure allocation to
// the path under test).
var benchSink int

func benchDeliver(pkt.Packet) { benchSink++ }

// BenchmarkLinkSend measures the full per-packet link cycle on a
// rate-limited queued link: admit, serialize, propagate, deliver. The
// payload is a typed value, so the measured loop is exactly the simulator's
// steady state — ring-buffer slots and arena events all recycled.
func BenchmarkLinkSend(b *testing.B) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Rate: 1e6, QueueCap: 64, Delay: ConstantDelay(0.001)})
	payload := pkt.Packet{Seq: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(payload, benchDeliver)
		for eng.Step() {
		}
	}
	b.StopTimer()
	if l.Stats().Delivered != b.N {
		b.Fatalf("delivered %d of %d packets", l.Stats().Delivered, b.N)
	}
}

// TestLinkSendZeroAlloc is the acceptance guard for the link hot path:
// with observability disabled, Send plus the event processing it
// triggers allocates nothing in steady state — no interface boxing
// anywhere on the typed packet path.
func TestLinkSendZeroAlloc(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Rate: 1e6, QueueCap: 64, Delay: ConstantDelay(0.001)})
	payload := pkt.Packet{Seq: 1}
	// Warm the ring, heap and arena past their growth phase.
	for i := 0; i < 128; i++ {
		l.Send(payload, benchDeliver)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(500, func() {
		l.Send(payload, benchDeliver)
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("Link.Send allocates %.1f objects per packet, want 0", allocs)
	}
}

// TestLinkSendZeroAllocWhileQueueing covers the other steady-state shape:
// packets arriving while the link is busy must recycle ring slots, not
// allocate queue entries.
func TestLinkSendZeroAllocWhileQueueing(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Rate: 100, QueueCap: 32, Delay: ConstantDelay(0.001)})
	payload := pkt.Packet{Seq: 1}
	for i := 0; i < 64; i++ {
		l.Send(payload, benchDeliver)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(500, func() {
		// Burst of four: the first occupies the server, the rest queue.
		for i := 0; i < 4; i++ {
			l.Send(payload, benchDeliver)
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("queued Send allocates %.1f objects per burst, want 0", allocs)
	}
}

// reorderLast and reorderSeen let reorderDeliver count deliveries that
// overtake a later-sent packet without capturing test state.
var reorderLast, reorderSeen uint64

func reorderDeliver(p pkt.Packet) {
	if p.Seq < reorderLast {
		reorderSeen++
	}
	reorderLast = p.Seq
}

// TestLinkSendZeroAllocWhileReordering covers propagate's third branch:
// inside a reordering window a jittered delay schedules each delivery
// on the engine's heap (SchedulePacket), which must recycle arena slots
// rather than allocate a closure per packet.
func TestLinkSendZeroAllocWhileReordering(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{
		Rate:     1e6,
		QueueCap: 64,
		Delay:    &UniformJitterDelay{Base: 0.001, Jitter: 0.01, RNG: sim.NewRNG(1)},
	})
	l.SetReorder(true)
	payload := pkt.Packet{}
	burst := func() {
		for i := 0; i < 4; i++ {
			payload.Seq++
			l.Send(payload, reorderDeliver)
		}
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		burst()
	}
	if reorderSeen == 0 {
		t.Fatal("no delivery overtook another: the reordering branch did not run")
	}
	if allocs := testing.AllocsPerRun(500, burst); allocs != 0 {
		t.Errorf("reordered Send allocates %.1f objects per burst, want 0", allocs)
	}
}
