package netem

import (
	"testing"

	"pftk/internal/pkt"
	"pftk/internal/proptest"
	"pftk/internal/sim"
)

// TestQuickFIFOUnderJitter is the regression property for the reordering
// bug class: however jittery the delay process, deliveries must preserve
// send order (real paths in the paper's model are FIFO; reordering would
// fabricate duplicate ACKs and spurious fast retransmits).
func TestQuickFIFOUnderJitter(t *testing.T) {
	f := func(seed uint64, baseRaw, jitterRaw uint8, nRaw uint16) bool {
		base := float64(baseRaw%100)/1000 + 0.001
		jitter := float64(jitterRaw%200) / 1000 // may exceed base
		n := int(nRaw%300) + 2

		var eng sim.Engine
		rng := sim.NewRNG(seed)
		l := NewLink(&eng, LinkConfig{
			Delay: &UniformJitterDelay{Base: base, Jitter: jitter, RNG: rng},
		})
		var order []int
		for i := 0; i < n; i++ {
			i := i
			// Send in bursts with tiny gaps, the worst case for
			// jitter reordering.
			eng.Schedule(float64(i/8)*0.001, func() {
				l.Send(pk(i), func(p pkt.Packet) { order = append(order, int(p.Seq)) })
			})
		}
		eng.Run()
		if len(order) != n {
			return false
		}
		for i, v := range order {
			if v != i {
				t.Logf("reordered at %d: %v", i, order[:i+1])
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 60)
}

// TestQuickFIFOThroughQueue extends the property to rate-limited queued
// links with random loss: surviving packets still arrive in order.
func TestQuickFIFOThroughQueue(t *testing.T) {
	f := func(seed uint64, rateRaw, capRaw uint8) bool {
		rate := float64(rateRaw%80) + 5
		qcap := int(capRaw%20) + 1
		var eng sim.Engine
		rng := sim.NewRNG(seed)
		l := NewLink(&eng, LinkConfig{
			Rate:     rate,
			QueueCap: qcap,
			Delay:    &ShiftedExpDelay{Base: 0.01, TailMean: 0.03, RNG: rng.Fork("d")},
			Loss:     NewBernoulli(0.1, rng.Fork("l")),
		})
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			eng.Schedule(float64(i)*0.005, func() {
				l.Send(pk(i), func(p pkt.Packet) { order = append(order, int(p.Seq)) })
			})
		}
		eng.Run()
		prev := -1
		for _, v := range order {
			if v <= prev {
				return false
			}
			prev = v
		}
		return true
	}
	proptest.Check(t, f, 60)
}

// TestConstantDelayStepDown: packets on a constant delay ride the
// engine's lane; after the delay steps down mid-stream, new packets are
// clamped behind those already in flight (and so take the heap) until
// the shorter delay clears them. Deliveries must keep send order and
// arrive exactly at max(send + delay, previous delivery).
func TestConstantDelayStepDown(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Delay: ConstantDelay(0.1)})
	type arrival struct {
		seq int
		at  float64
	}
	var got []arrival
	deliver := func(p pkt.Packet) { got = append(got, arrival{int(p.Seq), eng.Now()}) }
	const n = 20
	var want []float64
	last := 0.0
	for i := 0; i < n; i++ {
		i := i
		sent := float64(i) * 0.01
		d := 0.1
		if i >= 5 {
			d = 0.02
		}
		at := sent + d
		if at < last {
			at = last
		}
		last = at
		want = append(want, at)
		eng.Schedule(sent, func() { l.Send(pk(i), deliver) })
	}
	eng.Schedule(0.045, func() { l.SetDelay(ConstantDelay(0.02)) })
	eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d", len(got), n)
	}
	for i, a := range got {
		if a.seq != i || a.at != want[i] {
			t.Errorf("delivery %d: packet %d at %v, want packet %d at %v", i, a.seq, a.at, i, want[i])
		}
	}
}
