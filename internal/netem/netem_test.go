package netem

import (
	"math"
	"testing"

	"pftk/internal/pkt"
	"pftk/internal/proptest"
	"pftk/internal/sim"
)

func TestNoLossNeverDrops(t *testing.T) {
	var m NoLoss
	for i := 0; i < 100; i++ {
		if m.Drop(float64(i)) {
			t.Fatal("NoLoss dropped")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	m := NewBernoulli(0.2, sim.NewRNG(1))
	drops := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.Drop(0) {
			drops++
		}
	}
	if rate := float64(drops) / n; math.Abs(rate-0.2) > 0.01 {
		t.Errorf("bernoulli rate = %g, want ~0.2", rate)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	never := NewBernoulli(0, sim.NewRNG(1))
	always := NewBernoulli(1, sim.NewRNG(1))
	for i := 0; i < 100; i++ {
		if never.Drop(0) {
			t.Fatal("p=0 dropped")
		}
		if !always.Drop(0) {
			t.Fatal("p=1 kept")
		}
	}
}

func TestGilbertElliottAggregateRate(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.2} {
		m := GilbertElliottForLossRate(p, 3, sim.NewRNG(42))
		drops := 0
		const n = 300000
		for i := 0; i < n; i++ {
			if m.Drop(0) {
				drops++
			}
		}
		rate := float64(drops) / n
		if math.Abs(rate-p)/p > 0.15 {
			t.Errorf("GE(%g) aggregate rate = %g", p, rate)
		}
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// Mean burst length should be near the configured value.
	m := GilbertElliottForLossRate(0.05, 4, sim.NewRNG(7))
	var bursts, lost int
	in := false
	for i := 0; i < 500000; i++ {
		if m.Drop(0) {
			lost++
			if !in {
				bursts++
				in = true
			}
		} else {
			in = false
		}
	}
	meanBurst := float64(lost) / float64(bursts)
	if meanBurst < 2.5 || meanBurst > 6 {
		t.Errorf("mean burst length = %g, want ~4", meanBurst)
	}
}

func TestPeriodic(t *testing.T) {
	m := &Periodic{N: 3}
	var pattern []bool
	for i := 0; i < 9; i++ {
		pattern = append(pattern, m.Drop(0))
	}
	for i, d := range pattern {
		want := (i+1)%3 == 0
		if d != want {
			t.Errorf("packet %d drop=%v, want %v", i, d, want)
		}
	}
	z := &Periodic{N: 0}
	if z.Drop(0) {
		t.Error("N=0 should never drop")
	}
}

func TestScript(t *testing.T) {
	s := NewScript(1, 3)
	want := []bool{false, true, false, true, false}
	for i, w := range want {
		if got := s.Drop(0); got != w {
			t.Errorf("packet %d: drop=%v want %v", i, got, w)
		}
	}
	if s.Offered() != 5 {
		t.Errorf("Offered = %d, want 5", s.Offered())
	}
}

func TestConstantDelay(t *testing.T) {
	if d := ConstantDelay(0.05).Delay(99); d != 0.05 {
		t.Errorf("delay = %g", d)
	}
}

func TestUniformJitterDelayRange(t *testing.T) {
	d := &UniformJitterDelay{Base: 0.1, Jitter: 0.02, RNG: sim.NewRNG(1)}
	for i := 0; i < 1000; i++ {
		v := d.Delay(0)
		if v < 0.1 || v >= 0.12 {
			t.Fatalf("jitter delay out of range: %g", v)
		}
	}
	noJitter := &UniformJitterDelay{Base: 0.1}
	if noJitter.Delay(0) != 0.1 {
		t.Error("zero jitter should return base")
	}
}

func TestShiftedExpDelayMean(t *testing.T) {
	d := &ShiftedExpDelay{Base: 0.1, TailMean: 0.05, RNG: sim.NewRNG(2)}
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += d.Delay(0)
	}
	if m := sum / n; math.Abs(m-0.15) > 0.005 {
		t.Errorf("mean delay = %g, want ~0.15", m)
	}
	plain := &ShiftedExpDelay{Base: 0.2}
	if plain.Delay(0) != 0.2 {
		t.Error("zero tail should return base")
	}
}

func TestLinkDeliversInstantWhenInfinitelyFast(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Delay: ConstantDelay(0.05)})
	var arrived []float64
	l.Send(pk(1), func(pkt.Packet) { arrived = append(arrived, eng.Now()) })
	eng.Run()
	if len(arrived) != 1 || arrived[0] != 0.05 {
		t.Errorf("arrived = %v, want [0.05]", arrived)
	}
	st := l.Stats()
	if st.Offered != 1 || st.Delivered != 1 {
		t.Errorf("stats = %v", st)
	}
}

func TestLinkSerialization(t *testing.T) {
	// Rate 10 pkts/s: back-to-back sends leave the link 0.1s apart.
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Rate: 10, QueueCap: 10})
	var times []float64
	deliver := func(pkt.Packet) { times = append(times, eng.Now()) }
	for i := 0; i < 3; i++ {
		l.Send(pk(i), deliver)
	}
	eng.Run()
	want := []float64{0.1, 0.2, 0.3}
	if len(times) != 3 {
		t.Fatalf("delivered %d, want 3", len(times))
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-9 {
			t.Errorf("delivery %d at %g, want %g", i, times[i], want[i])
		}
	}
}

func TestLinkDropTail(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Rate: 1, QueueCap: 2})
	delivered := 0
	for i := 0; i < 10; i++ {
		l.Send(pk(i), func(pkt.Packet) { delivered++ })
	}
	eng.Run()
	// 1 in service + 2 queued survive; 7 dropped.
	if delivered != 3 {
		t.Errorf("delivered = %d, want 3", delivered)
	}
	st := l.Stats()
	if st.QueueDrops != 7 {
		t.Errorf("queue drops = %d, want 7", st.QueueDrops)
	}
	if st.MaxQueue != 2 {
		t.Errorf("max queue = %d, want 2", st.MaxQueue)
	}
	if lr := st.LossRate(); math.Abs(lr-0.7) > 1e-12 {
		t.Errorf("loss rate = %g, want 0.7", lr)
	}
}

func TestLinkZeroQueueCap(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Rate: 1, QueueCap: 0})
	delivered := 0
	l.Send(pk(1), func(pkt.Packet) { delivered++ })
	l.Send(pk(2), func(pkt.Packet) { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 with no buffering", delivered)
	}
}

func TestLinkRandomLossBeforeQueue(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Loss: NewScript(0)})
	delivered := 0
	l.Send(pk(1), func(pkt.Packet) { delivered++ })
	l.Send(pk(2), func(pkt.Packet) { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1", delivered)
	}
	if l.Stats().RandomDrops != 1 {
		t.Errorf("random drops = %d, want 1", l.Stats().RandomDrops)
	}
}

func TestLinkFIFOOrder(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Rate: 100, QueueCap: 50})
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		l.Send(pk(i), func(p pkt.Packet) { order = append(order, int(p.Seq)) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order delivery: %v", order)
		}
	}
}

func TestLinkPayloadIntegrity(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Rate: 10, QueueCap: 5, Delay: ConstantDelay(0.01)})
	var got []pkt.Packet
	for i, k := range []pkt.Kind{pkt.Data, pkt.Ack, pkt.Feedback} {
		l.Send(pkt.Packet{Seq: uint64(i + 1), Kind: k, Flow: int32(i), Sent: float64(i) * 0.5},
			func(p pkt.Packet) { got = append(got, p) })
	}
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(got))
	}
	for i, p := range got {
		want := pkt.Packet{Seq: uint64(i + 1), Flow: int32(i), Sent: float64(i) * 0.5}
		switch i {
		case 0:
			want.Kind = pkt.Data
		case 1:
			want.Kind = pkt.Ack
		case 2:
			want.Kind = pkt.Feedback
		}
		if p != want {
			t.Errorf("packet %d = %+v, want %+v", i, p, want)
		}
	}
}

func TestPathDirections(t *testing.T) {
	var eng sim.Engine
	p := NewPath(&eng, SymmetricPath(0.05, nil))
	var fwdAt, revAt float64
	p.Forward.Send(pk(1), func(pkt.Packet) { fwdAt = eng.Now() })
	p.Reverse.Send(pk(2), func(pkt.Packet) { revAt = eng.Now() })
	eng.Run()
	if fwdAt != 0.05 || revAt != 0.05 {
		t.Errorf("one-way delays: fwd=%g rev=%g, want 0.05 both", fwdAt, revAt)
	}
}

func TestModemPathQueueingDelayGrowsWithBacklog(t *testing.T) {
	var eng sim.Engine
	cfg := ModemPath(4, 30, 0.05) // ~28.8kbps with 1KB packets
	p := NewPath(&eng, cfg)
	var arrivals []float64
	n := 10
	for i := 0; i < n; i++ {
		p.Forward.Send(pk(i), func(pkt.Packet) { arrivals = append(arrivals, eng.Now()) })
	}
	eng.Run()
	if len(arrivals) != n {
		t.Fatalf("delivered %d, want %d", len(arrivals), n)
	}
	// Packet i sees i/rate of queueing: arrival gap must equal 1/rate.
	for i := 1; i < n; i++ {
		if gap := arrivals[i] - arrivals[i-1]; math.Abs(gap-0.25) > 1e-9 {
			t.Errorf("gap %d = %g, want 0.25", i, gap)
		}
	}
}

func TestQuickLinkConservation(t *testing.T) {
	// offered = delivered + randomDrops + queueDrops, for arbitrary
	// configurations and workloads.
	f := func(nRaw uint8, rateRaw, capRaw uint8, lossRaw uint8, seed uint64) bool {
		var eng sim.Engine
		n := int(nRaw)%100 + 1
		cfg := LinkConfig{
			Rate:     float64(rateRaw%50) * 2, // may be 0 = infinite
			QueueCap: int(capRaw % 20),
			Loss:     NewBernoulli(float64(lossRaw%100)/100, sim.NewRNG(seed)),
			Delay:    ConstantDelay(0.01),
		}
		l := NewLink(&eng, cfg)
		delivered := 0
		for i := 0; i < n; i++ {
			l.Send(pk(i), func(pkt.Packet) { delivered++ })
			eng.RunUntil(eng.Now() + float64(i%3)*0.005)
		}
		eng.Run()
		st := l.Stats()
		return st.Offered == n &&
			st.Delivered == delivered &&
			st.Offered == st.Delivered+st.RandomDrops+st.QueueDrops
	}
	proptest.Check(t, f, 200)
}

func TestLinkNilDeliverPanics(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil deliver")
		}
	}()
	l.Send(pk(1), nil)
}

func TestNewLinkNilEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil engine")
		}
	}()
	NewLink(nil, LinkConfig{})
}
