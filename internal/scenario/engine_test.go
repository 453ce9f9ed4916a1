package scenario

import (
	"fmt"
	"testing"

	"pftk/internal/netem"
	"pftk/internal/obs"
	"pftk/internal/pkt"
	"pftk/internal/sim"
)

// pump schedules one data packet per second on the path's forward link
// for the whole horizon, recording arrival times.
func pump(eng *sim.Engine, p *netem.Path, horizon float64, arrivals *[]float64) {
	for t := 0.5; t < horizon; t++ {
		at := t
		eng.Schedule(at, func() {
			p.Forward.Send(pkt.Packet{Seq: uint64(at)}, func(pkt.Packet) { *arrivals = append(*arrivals, eng.Now()) })
		})
	}
}

func TestPhaseSwitchesLossAtBoundary(t *testing.T) {
	var eng sim.Engine
	p := netem.NewPath(&eng, netem.SymmetricPath(0.05, nil))
	sc := &Scenario{Phases: []Phase{{At: 5, Loss: &LossSpec{Rate: 1}}}}
	var arrivals []float64
	r := Bind(&eng, p, Config{Scenario: sc, RNG: sim.NewRNG(1), Base: Base{RTT: 0.1}, Horizon: 10})
	pump(&eng, p, 10, &arrivals)
	eng.Run()
	stats := r.Finish()

	// Packets at 0.5..4.5 arrive; 5.5..9.5 all die in the p=1 phase.
	if len(arrivals) != 5 {
		t.Fatalf("delivered %d packets, want 5 (phase must drop the rest)", len(arrivals))
	}
	if r.Transitions() != 1 {
		t.Fatalf("Transitions() = %d, want 1", r.Transitions())
	}
	if len(stats) != 2 {
		t.Fatalf("PhaseStats = %v, want base + 1 phase", stats)
	}
	base, ph := stats[0], stats[1]
	if base.Phase != -1 || base.Offered != 5 || base.Dropped != 0 {
		t.Errorf("base segment = %v, want 5 offered 0 dropped", base)
	}
	if ph.Phase != 0 || ph.Offered != 5 || ph.Dropped != 5 {
		t.Errorf("phase segment = %v, want 5 offered 5 dropped", ph)
	}
	if base.Start != 0 || base.End != 5 || ph.Start != 5 {
		t.Errorf("segment bounds base=[%g,%g) phase=[%g,...), want [0,5) [5,...)", base.Start, base.End, ph.Start)
	}
}

func TestPhaseChangesRTTMidRun(t *testing.T) {
	var eng sim.Engine
	p := netem.NewPath(&eng, netem.SymmetricPath(0.05, nil))
	sc := &Scenario{Phases: []Phase{{At: 5, RTT: f64(0.5)}}}
	Bind(&eng, p, Config{Scenario: sc, RNG: sim.NewRNG(1), Base: Base{RTT: 0.1}, Horizon: 10})

	var arrivals []float64
	deliver := func(pkt.Packet) { arrivals = append(arrivals, eng.Now()) }
	eng.Schedule(1, func() { p.Forward.Send(pkt.Packet{Seq: 1}, deliver) })
	eng.Schedule(6, func() { p.Forward.Send(pkt.Packet{Seq: 2}, deliver) })
	eng.Run()

	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 1.05 {
		t.Errorf("pre-phase arrival at %g, want 1.05 (one-way 0.05)", arrivals[0])
	}
	if arrivals[1] != 6.25 {
		t.Errorf("post-phase arrival at %g, want 6.25 (one-way 0.25)", arrivals[1])
	}
}

func TestOutageFaultWindow(t *testing.T) {
	var eng sim.Engine
	p := netem.NewPath(&eng, netem.SymmetricPath(0.05, nil))
	sc := &Scenario{Faults: []Fault{{Kind: KindOutage, Start: 2, Dur: 2}}}
	reg := obs.New()
	r := Bind(&eng, p, Config{Scenario: sc, RNG: sim.NewRNG(1), Base: Base{RTT: 0.1}, Horizon: 6, Registry: reg})

	var got []int
	deliver := func(pl pkt.Packet) { got = append(got, int(pl.Seq)) }
	eng.Schedule(1, func() { p.Forward.Send(pkt.Packet{Seq: 1}, deliver) })
	eng.Schedule(3, func() {
		if r.ActiveFaults() != 1 {
			t.Errorf("ActiveFaults() = %d inside window, want 1", r.ActiveFaults())
		}
		p.Forward.Send(pkt.Packet{Seq: 2}, deliver)
	})
	eng.Schedule(5, func() { p.Forward.Send(pkt.Packet{Seq: 3}, deliver) })
	eng.Run()

	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("delivered %v, want [1 3] (packet 2 inside the outage)", got)
	}
	if r.ActiveFaults() != 0 {
		t.Errorf("ActiveFaults() = %d after window, want 0", r.ActiveFaults())
	}
	if r.FaultsStarted() != 1 {
		t.Errorf("FaultsStarted() = %d, want 1", r.FaultsStarted())
	}
	r.RecordMetrics()
	snap := reg.Snapshot()
	if c := snap.Counters["scenario.faults.started"]; c != 1 {
		t.Errorf("scenario.faults.started = %d, want 1", c)
	}
	if c := snap.Counters["scenario.faults.ended"]; c != 1 {
		t.Errorf("scenario.faults.ended = %d, want 1", c)
	}
}

func TestPeriodicFaultOccurrences(t *testing.T) {
	var eng sim.Engine
	p := netem.NewPath(&eng, netem.SymmetricPath(0.01, nil))

	// Bounded by count.
	sc := &Scenario{Faults: []Fault{{Kind: KindOutage, Start: 1, Dur: 0.5, Period: 2, Count: 3}}}
	r := Bind(&eng, p, Config{Scenario: sc, RNG: sim.NewRNG(1), Base: Base{RTT: 0.02}, Horizon: 100})
	eng.Run()
	if r.FaultsStarted() != 3 {
		t.Errorf("count=3: FaultsStarted() = %d, want 3", r.FaultsStarted())
	}

	// Unbounded: expands to the horizon.
	var eng2 sim.Engine
	p2 := netem.NewPath(&eng2, netem.SymmetricPath(0.01, nil))
	sc2 := &Scenario{Faults: []Fault{{Kind: KindOutage, Start: 0, Dur: 1, Period: 5}}}
	r2 := Bind(&eng2, p2, Config{Scenario: sc2, RNG: sim.NewRNG(1), Base: Base{RTT: 0.02}, Horizon: 20})
	eng2.Run()
	if r2.FaultsStarted() != 4 {
		t.Errorf("horizon=20 period=5: FaultsStarted() = %d, want 4 (t=0,5,10,15)", r2.FaultsStarted())
	}
}

func TestOverlappingFaultsCompose(t *testing.T) {
	var eng sim.Engine
	p := netem.NewPath(&eng, netem.SymmetricPath(0.05, nil))
	sc := &Scenario{Faults: []Fault{
		{Kind: KindDelaySpike, Start: 1, Dur: 4, ExtraDelay: 0.1},
		{Kind: KindDelaySpike, Start: 2, Dur: 2, ExtraDelay: 0.2},
	}}
	Bind(&eng, p, Config{Scenario: sc, RNG: sim.NewRNG(1), Base: Base{RTT: 0.1}, Horizon: 10})

	var arrivals []float64
	deliver := func(pkt.Packet) { arrivals = append(arrivals, eng.Now()) }
	eng.Schedule(3, func() { p.Forward.Send(pkt.Packet{Seq: 1}, deliver) })   // both spikes active
	eng.Schedule(4.5, func() { p.Forward.Send(pkt.Packet{Seq: 2}, deliver) }) // only the first
	eng.Schedule(6, func() { p.Forward.Send(pkt.Packet{Seq: 3}, deliver) })   // none
	eng.Run()

	want := []float64{3 + 0.05 + 0.3, 4.5 + 0.05 + 0.1, 6 + 0.05}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i := range want {
		if diff := arrivals[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("arrival %d at %g, want %g", i, arrivals[i], want[i])
		}
	}
}

func TestDuplicateFaultWindow(t *testing.T) {
	var eng sim.Engine
	p := netem.NewPath(&eng, netem.SymmetricPath(0.05, nil))
	sc := &Scenario{Faults: []Fault{{Kind: KindDuplicate, Start: 0, Dur: 10, Prob: 1}}}
	r := Bind(&eng, p, Config{Scenario: sc, RNG: sim.NewRNG(1), Base: Base{RTT: 0.1}, Horizon: 10})
	var got []int
	eng.Schedule(1, func() { p.Forward.Send(pkt.Packet{Seq: 1}, func(pl pkt.Packet) { got = append(got, int(pl.Seq)) }) })
	eng.Run()
	r.Finish()
	if len(got) != 2 {
		t.Fatalf("delivered %v, want the packet twice", got)
	}
	if st := p.DataStats(); st.Duplicated != 1 {
		t.Errorf("Duplicated = %d, want 1", st.Duplicated)
	}
}

// scenarioFingerprint runs a loss+jitter-heavy scenario and returns a
// string capturing every arrival (payload and time).
func scenarioFingerprint(seed uint64) string {
	var eng sim.Engine
	p := netem.NewPath(&eng, netem.SymmetricPath(0.05, nil))
	sc := &Scenario{
		Phases: []Phase{
			{At: 10, Loss: &LossSpec{Rate: 0.3, Model: LossGE, BurstLen: 2}},
			{At: 20, Loss: &LossSpec{Rate: 0.1}, RTT: f64(0.4)},
		},
		Faults: []Fault{
			{Kind: KindLossBurst, Start: 5, Dur: 3, LossRate: 0.5},
			{Kind: KindReorder, Start: 12, Dur: 6, Jitter: 0.2},
			{Kind: KindDuplicate, Start: 15, Dur: 10, Prob: 0.3},
		},
	}
	r := Bind(&eng, p, Config{Scenario: sc, RNG: sim.NewRNG(seed), Base: Base{RTT: 0.1, Loss: netem.NewBernoulli(0.05, sim.NewRNG(seed).Fork("base-loss"))}, Horizon: 30})
	out := ""
	for t := 0.25; t < 30; t += 0.25 {
		at := t
		eng.Schedule(at, func() {
			p.Forward.Send(pkt.Packet{Sent: at}, func(pl pkt.Packet) {
				out += fmt.Sprintf("%v@%v;", pl.Sent, eng.Now())
			})
		})
	}
	eng.Run()
	for _, ps := range r.Finish() {
		out += ps.String() + "|"
	}
	return out
}

func TestScenarioRunsAreByteReproducible(t *testing.T) {
	a := scenarioFingerprint(42)
	b := scenarioFingerprint(42)
	if a != b {
		t.Fatal("identical seeds produced different runs")
	}
	c := scenarioFingerprint(43)
	if a == c {
		t.Fatal("different seeds produced identical runs (RNG not wired through)")
	}
}

func TestBindRejectsInvalidInputs(t *testing.T) {
	var eng sim.Engine
	p := netem.NewPath(&eng, netem.SymmetricPath(0.05, nil))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Bind did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil rng", func() { Bind(&eng, p, Config{}) })
	mustPanic("invalid scenario", func() {
		Bind(&eng, p, Config{RNG: sim.NewRNG(1), Scenario: &Scenario{Phases: []Phase{{At: -1}}}})
	})
	mustPanic("nil controller", func() { Bind(&eng, nil, Config{RNG: sim.NewRNG(1)}) })
}

func TestNilScenarioBindsBaseOnly(t *testing.T) {
	var eng sim.Engine
	p := netem.NewPath(&eng, netem.SymmetricPath(0.05, nil))
	r := Bind(&eng, p, Config{Scenario: nil, RNG: sim.NewRNG(1), Base: Base{RTT: 0.2}})
	var arrivals []float64
	eng.Schedule(1, func() {
		p.Forward.Send(pkt.Packet{Seq: 1}, func(pkt.Packet) { arrivals = append(arrivals, eng.Now()) })
	})
	eng.Run()
	if len(arrivals) != 1 || arrivals[0] != 1.1 {
		t.Fatalf("arrivals = %v, want [1.1] (base one-way 0.1)", arrivals)
	}
	stats := r.Finish()
	if len(stats) != 1 || stats[0].Phase != -1 || stats[0].Offered != 1 {
		t.Fatalf("PhaseStats = %v, want a single base segment with 1 offered", stats)
	}
}
