package netem

import (
	"math"
	"testing"

	"pftk/internal/pkt"
	"pftk/internal/sim"
)

func TestREDNoDropsBelowMinThreshold(t *testing.T) {
	r := NewRED(40, sim.NewRNG(1))
	for i := 0; i < 1000; i++ {
		if r.ShouldDrop(2) { // far below MinTh = 10
			t.Fatal("dropped below MinTh")
		}
	}
}

func TestREDAlwaysDropsAboveMaxThreshold(t *testing.T) {
	r := NewRED(40, sim.NewRNG(1))
	// Saturate the average well above MaxTh = 30.
	for i := 0; i < 20000; i++ {
		r.ShouldDrop(40)
	}
	if r.Avg() < r.MaxTh {
		t.Fatalf("average %g did not converge above MaxTh %g", r.Avg(), r.MaxTh)
	}
	for i := 0; i < 100; i++ {
		if !r.ShouldDrop(40) {
			t.Fatal("kept a packet with average above MaxTh")
		}
	}
}

func TestREDLinearRamp(t *testing.T) {
	// With the average held mid-ramp, the aggregate drop rate should be
	// near MaxP/2 (count correction raises it slightly).
	r := NewRED(40, sim.NewRNG(2))
	mid := int((r.MinTh + r.MaxTh) / 2)
	for i := 0; i < 20000; i++ {
		r.ShouldDrop(mid) // warm the EWMA
	}
	drops := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if r.ShouldDrop(mid) {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.03 || rate > 0.12 {
		t.Errorf("mid-ramp drop rate = %g, want around MaxP/2 = 0.05", rate)
	}
}

func TestREDAverageTracksQueue(t *testing.T) {
	r := NewRED(40, sim.NewRNG(3))
	for i := 0; i < 50000; i++ {
		r.ShouldDrop(20)
	}
	if math.Abs(r.Avg()-20) > 0.5 {
		t.Errorf("EWMA = %g, want ~20", r.Avg())
	}
}

func TestREDSpacesDrops(t *testing.T) {
	// Floyd's count correction: consecutive drops should be rare
	// mid-ramp compared to a Bernoulli process with the same rate.
	r := NewRED(40, sim.NewRNG(4))
	mid := int((r.MinTh + r.MaxTh) / 2)
	for i := 0; i < 20000; i++ {
		r.ShouldDrop(mid)
	}
	var gaps []int
	gap := 0
	for i := 0; i < 100000; i++ {
		if r.ShouldDrop(mid) {
			gaps = append(gaps, gap)
			gap = 0
		} else {
			gap++
		}
	}
	if len(gaps) < 100 {
		t.Fatalf("only %d drops", len(gaps))
	}
	// Floyd's count correction makes inter-drop gaps roughly uniform on
	// [0, 1/p_b] instead of geometric: the coefficient of variation
	// should be near the uniform value (~0.58), well below the
	// geometric value (~1).
	var sum, sq float64
	for _, g := range gaps {
		sum += float64(g)
		sq += float64(g) * float64(g)
	}
	mean := sum / float64(len(gaps))
	cv := math.Sqrt(sq/float64(len(gaps))-mean*mean) / mean
	if cv > 0.8 {
		t.Errorf("inter-drop gap CV = %.2f, want < 0.8 (uniform-ish spacing)", cv)
	}
}

func TestREDLinkDropsUnderLoad(t *testing.T) {
	var eng sim.Engine
	l := NewREDLink(&eng, LinkConfig{Rate: 20, QueueCap: 20}, sim.NewRNG(5))
	delivered := 0
	// Offer 3x the service rate for 60 seconds.
	for i := 0; i < 60*60; i++ {
		i := i
		eng.Schedule(float64(i)/60, func() {
			l.Send(pk(i), func(pkt.Packet) { delivered++ })
		})
	}
	eng.Run()
	if l.REDDrops() == 0 {
		t.Error("overloaded RED link made no early drops")
	}
	st := l.Stats()
	if st.Offered != 3600 {
		t.Errorf("offered = %d", st.Offered)
	}
	if st.Delivered != delivered {
		t.Errorf("stats delivered %d != callback count %d", st.Delivered, delivered)
	}
	// RED should keep the queue well below the hard cap most of the
	// time: early drops happen before overflow.
	if st.QueueDrops > l.REDDrops() {
		t.Errorf("drop-tail drops (%d) exceed RED drops (%d): RED not engaging early",
			st.QueueDrops, l.REDDrops())
	}
}

// TestREDDropsAttributed checks that RED early drops count as offered
// and as random drops in LinkStats, never as drop-tail overflow.
func TestREDDropsAttributed(t *testing.T) {
	var eng sim.Engine
	l := NewREDLink(&eng, LinkConfig{Rate: 5, QueueCap: 8}, sim.NewRNG(7))
	delivered := 0
	for i := 0; i < 400; i++ {
		l.Send(pk(i), func(pkt.Packet) { delivered++ })
	}
	eng.Run()
	if l.REDDrops() == 0 {
		t.Fatal("test should exercise RED drops")
	}
	st := l.Stats()
	// No loss model: every random drop is a RED decision.
	if st.RandomDrops != l.REDDrops() {
		t.Errorf("stats random drops = %d, REDDrops() = %d", st.RandomDrops, l.REDDrops())
	}
	if st.Offered != 400 {
		t.Errorf("stats offered = %d, want 400 (RED drops are offered packets)", st.Offered)
	}
	if got := st.RandomDrops + st.QueueDrops + delivered; got != st.Offered {
		t.Errorf("drops %d+%d plus deliveries %d = %d, offered %d",
			st.RandomDrops, st.QueueDrops, delivered, got, st.Offered)
	}
}

func TestREDLinkIdleNoDrops(t *testing.T) {
	var eng sim.Engine
	l := NewREDLink(&eng, LinkConfig{Rate: 100, QueueCap: 20}, sim.NewRNG(6))
	delivered := 0
	// One packet per 100 ms against a 100 pkts/s server: queue stays
	// empty.
	for i := 0; i < 100; i++ {
		eng.Schedule(float64(i)/10, func() {
			l.Send(pk(i), func(pkt.Packet) { delivered++ })
		})
	}
	eng.Run()
	if delivered != 100 {
		t.Errorf("delivered %d of 100 on an idle RED link", delivered)
	}
}
