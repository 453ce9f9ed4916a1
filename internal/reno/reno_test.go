package reno

import (
	"math"
	"testing"

	"pftk/internal/netem"
	"pftk/internal/pkt"
	"pftk/internal/sim"
	"pftk/internal/trace"
)

// testConn builds a connection over a clean constant-delay path with the
// given forward loss model.
func testConn(t *testing.T, loss netem.LossModel, scfg SenderConfig, rcfg ReceiverConfig) (*sim.Engine, *Connection) {
	t.Helper()
	var eng sim.Engine
	cfg := ConnConfig{
		Sender:   scfg,
		Receiver: rcfg,
		Path:     netem.SymmetricPath(0.05, loss), // RTT = 0.1 s
	}
	return &eng, NewConnection(&eng, cfg)
}

func TestLosslessTransferDeliversInOrder(t *testing.T) {
	eng, c := testConn(t, nil, SenderConfig{RWnd: 8}, ReceiverConfig{})
	_ = eng
	res := c.Run(30)
	if res.Stats.Retransmits != 0 {
		t.Errorf("lossless run retransmitted %d packets", res.Stats.Retransmits)
	}
	if res.Stats.TimeoutEvents != 0 || res.Stats.TDEvents != 0 {
		t.Errorf("lossless run saw loss indications: %+v", res.Stats)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Everything sent should eventually be delivered (minus in-flight
	// tail at cutoff).
	if diff := res.Stats.PacketsSent - int(res.Delivered); diff < 0 || diff > 16 {
		t.Errorf("sent %d vs delivered %d", res.Stats.PacketsSent, res.Delivered)
	}
}

func TestLosslessRateApproachesWindowCeiling(t *testing.T) {
	// Wm = 8, RTT = 0.1 s: ceiling = 80 pkts/s. A saturated lossless
	// sender should reach most of it (slow start consumes a little).
	eng, c := testConn(t, nil, SenderConfig{RWnd: 8}, ReceiverConfig{})
	_ = eng
	res := c.Run(60)
	ceiling := 8 / 0.1
	if r := res.SendRate(); r < 0.8*ceiling || r > 1.05*ceiling {
		t.Errorf("send rate %g, want near ceiling %g", r, ceiling)
	}
}

func TestWindowNeverExceedsAdvertised(t *testing.T) {
	eng, c := testConn(t, nil, SenderConfig{RWnd: 5}, ReceiverConfig{})
	// Snoop flight size after every event by interleaving RunUntil.
	c.Sender.Start()
	for i := 0; i < 2000; i++ {
		eng.Step()
		if f := c.Sender.InFlight(); f > 5 {
			t.Fatalf("in flight %d exceeds advertised window 5", f)
		}
	}
	c.Sender.Stop()
}

func TestSlowStartDoublesPerRound(t *testing.T) {
	eng, c := testConn(t, nil, SenderConfig{RWnd: 64, TraceCwnd: true}, ReceiverConfig{AckEvery: 1})
	c.Sender.Start()
	eng.RunUntil(0.95) // ~9 RTTs of 0.1 s
	c.Sender.Stop()
	// With per-packet ACKs, slow start doubles cwnd every RTT; after ~9
	// rounds cwnd should have hit the advertised window.
	if w := c.Sender.Cwnd(); w < 32 {
		t.Errorf("cwnd after slow start = %g, want >= 32", w)
	}
}

func TestCongestionAvoidanceLinearGrowth(t *testing.T) {
	// Start above ssthresh: growth should be ~1/b packets per RTT.
	scfg := SenderConfig{RWnd: 400, InitialCwnd: 20, InitialSsthresh: 2}
	eng, c := testConn(t, nil, scfg, ReceiverConfig{AckEvery: 2})
	c.Sender.Start()
	eng.RunUntil(0.3) // let it settle into CA
	w0 := c.Sender.Cwnd()
	rounds := 40.0
	eng.RunUntil(0.3 + rounds*0.1)
	c.Sender.Stop()
	growth := (c.Sender.Cwnd() - w0) / rounds // packets per RTT
	if growth < 0.3 || growth > 0.7 {
		t.Errorf("CA growth = %g pkts/RTT, want ~0.5 (1/b with b=2)", growth)
	}
}

func TestFastRetransmitOnThirdDupAck(t *testing.T) {
	// Drop a single packet once the window is comfortably above 4 so
	// three dupacks arrive.
	scfg := SenderConfig{RWnd: 32, InitialCwnd: 10, InitialSsthresh: 10}
	eng, c := testConn(t, netem.NewScript(5), scfg, ReceiverConfig{AckEvery: 1})
	_ = eng
	res := c.Run(5)
	if res.Stats.TDEvents != 1 {
		t.Errorf("TD events = %d, want exactly 1", res.Stats.TDEvents)
	}
	if res.Stats.FastRetx != 1 {
		t.Errorf("fast retransmits = %d, want 1", res.Stats.FastRetx)
	}
	if res.Stats.TimeoutEvents != 0 {
		t.Errorf("timeouts = %d, want 0 (loss should be repaired by fast retx)", res.Stats.TimeoutEvents)
	}
	// All data eventually delivered.
	if res.Delivered == 0 || res.Stats.PacketsSent-int(res.Delivered) > 40 {
		t.Errorf("delivered %d of %d", res.Delivered, res.Stats.PacketsSent)
	}
}

func TestFastRetransmitHalvesWindow(t *testing.T) {
	scfg := SenderConfig{RWnd: 64, InitialCwnd: 16, InitialSsthresh: 16, TraceCwnd: true}
	eng, c := testConn(t, netem.NewScript(20), scfg, ReceiverConfig{AckEvery: 1})
	c.Sender.Start()
	for eng.Step() {
		if c.Sender.Stats().TDEvents > 0 {
			break
		}
	}
	if c.Sender.Stats().TDEvents != 1 {
		t.Fatal("no TD event observed")
	}
	// Let recovery complete (a couple of RTTs), then check the window
	// deflated to about half its value at the loss — before additive
	// growth has had time to rebuild it.
	eng.RunUntil(eng.Now() + 0.5)
	c.Sender.Stop()
	if w := c.Sender.Cwnd(); w < 6 || w > 32 {
		t.Errorf("cwnd after fast recovery = %g, want roughly halved", w)
	}
}

func TestLinuxVariantRetransmitsOnSecondDupAck(t *testing.T) {
	// With exactly 2 packets following the loss in flight, standard
	// Reno cannot fast-retransmit but the Linux variant can.
	// Window of 4: drop packet index 10; in-flight afterwards yields 3
	// dupacks for Reno threshold, so instead use window 3 -> 2 dupacks.
	mk := func(v Variant) SenderStats {
		scfg := SenderConfig{Variant: v, RWnd: 3, InitialCwnd: 3, InitialSsthresh: 1}
		eng, c := testConn(t, netem.NewScript(10), scfg, ReceiverConfig{AckEvery: 1})
		_ = eng
		return c.Run(20).Stats
	}
	linux := mk(Linux)
	std := mk(Reno)
	if linux.TDEvents != 1 {
		t.Errorf("linux TD events = %d, want 1 (fast retx after 2 dupacks)", linux.TDEvents)
	}
	if std.TDEvents != 0 {
		t.Errorf("reno TD events = %d, want 0 (only 2 dupacks available)", std.TDEvents)
	}
	if std.TimeoutEvents == 0 {
		t.Error("reno should have recovered via timeout")
	}
}

func TestTimeoutWhenWindowTooSmallForDupAcks(t *testing.T) {
	// Window of 2: a loss can never generate 3 dupacks -> timeout. This
	// is exactly the w <= 3 => Q̂ = 1 regime of eq. (22).
	scfg := SenderConfig{RWnd: 2, MinRTO: 0.4, Tick: 0.1}
	eng, c := testConn(t, netem.NewScript(6), scfg, ReceiverConfig{AckEvery: 1})
	_ = eng
	res := c.Run(30)
	if res.Stats.TDEvents != 0 {
		t.Errorf("TD events = %d, want 0 with window 2", res.Stats.TDEvents)
	}
	if res.Stats.TimeoutEvents < 1 {
		t.Error("expected at least one timeout")
	}
	if res.Delivered == 0 {
		t.Error("connection did not recover from timeout")
	}
}

func TestTimeoutCollapsesWindowToOne(t *testing.T) {
	scfg := SenderConfig{RWnd: 2, MinRTO: 0.4, Tick: 0.1, TraceCwnd: true}
	eng, c := testConn(t, netem.NewScript(6), scfg, ReceiverConfig{AckEvery: 1})
	c.Sender.Start()
	// Run until just after the first timeout fires.
	for eng.Step() {
		if c.Sender.Stats().TimeoutEvents > 0 {
			break
		}
	}
	if w := c.Sender.Cwnd(); w != 1 {
		t.Errorf("cwnd after timeout = %g, want 1", w)
	}
	c.Sender.Stop()
}

func TestExponentialBackoffDoublesAndCaps(t *testing.T) {
	// Cut the wire entirely after the first packets: every retransmit
	// is lost, so timeouts must double up to the 2^6 cap.
	var eng sim.Engine
	blackhole := &netem.Periodic{N: 1} // drop everything
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 4, MinRTO: 0.5, Tick: 0},
		Path: netem.PathConfig{
			Forward: netem.LinkConfig{Delay: netem.ConstantDelay(0.05), Loss: blackhole},
			Reverse: netem.LinkConfig{Delay: netem.ConstantDelay(0.05)},
		},
	}
	c := NewConnection(&eng, cfg)
	c.Sender.Start()
	var fireTimes []float64
	for eng.Now() < 1300 {
		before := c.Sender.Stats().TimeoutEvents
		if !eng.Step() {
			break
		}
		if c.Sender.Stats().TimeoutEvents > before {
			fireTimes = append(fireTimes, eng.Now())
		}
	}
	c.Sender.Stop()
	if len(fireTimes) < 10 {
		t.Fatalf("only %d timeouts fired", len(fireTimes))
	}
	var gaps []float64
	for i := 1; i < len(fireTimes); i++ {
		gaps = append(gaps, fireTimes[i]-fireTimes[i-1])
	}
	// The first fire happens after T0, so gaps[0] is already the
	// doubled timeout 2*T0. Subsequent gaps double until the 64*T0 cap,
	// i.e. 32*gaps[0].
	base := gaps[0]
	cap64 := 32 * base
	for i := 1; i < len(gaps); i++ {
		want := base * math.Pow(2, float64(i))
		if want > cap64 {
			want = cap64
		}
		if math.Abs(gaps[i]-want)/want > 0.05 {
			t.Errorf("gap %d = %g, want ~%g", i, gaps[i], want)
		}
	}
	if math.Abs(gaps[len(gaps)-1]-cap64)/cap64 > 0.05 {
		t.Errorf("final gap %g, want saturated at %g", gaps[len(gaps)-1], cap64)
	}
}

func TestIrixBackoffCap(t *testing.T) {
	var eng sim.Engine
	cfg := ConnConfig{
		Sender: SenderConfig{Variant: Irix, RWnd: 4, MinRTO: 0.5},
		Path: netem.PathConfig{
			Forward: netem.LinkConfig{Delay: netem.ConstantDelay(0.05), Loss: &netem.Periodic{N: 1}},
			Reverse: netem.LinkConfig{Delay: netem.ConstantDelay(0.05)},
		},
	}
	c := NewConnection(&eng, cfg)
	c.Sender.Start()
	var fireTimes []float64
	for eng.Now() < 700 {
		before := c.Sender.Stats().TimeoutEvents
		if !eng.Step() {
			break
		}
		if c.Sender.Stats().TimeoutEvents > before {
			fireTimes = append(fireTimes, eng.Now())
		}
	}
	c.Sender.Stop()
	if len(fireTimes) < 10 {
		t.Fatalf("only %d timeouts", len(fireTimes))
	}
	// fireTimes[1]-fireTimes[0] is 2*T0; the Irix cap is 32*T0, i.e.
	// 16x the first gap.
	base := fireTimes[1] - fireTimes[0]
	last := fireTimes[len(fireTimes)-1] - fireTimes[len(fireTimes)-2]
	if math.Abs(last-16*base)/(16*base) > 0.05 {
		t.Errorf("Irix saturated gap = %g, want 16*first gap = %g", last, 16*base)
	}
}

func TestBackoffResetAfterNewAck(t *testing.T) {
	// A timeout doubling must reset once fresh data is acknowledged.
	scfg := SenderConfig{RWnd: 2, MinRTO: 0.4}
	eng, c := testConn(t, netem.NewScript(4, 5, 10), scfg, ReceiverConfig{AckEvery: 1})
	c.Sender.Start()
	eng.RunUntil(60)
	c.Sender.Stop()
	st := c.Sender.Stats()
	if st.TimeoutEvents == 0 {
		t.Fatal("no timeouts")
	}
	// All timeouts after recovery should be "single" (backoff exponent
	// 0) since losses are isolated.
	if st.TimeoutsByBackoff[0] < 2 {
		t.Errorf("backoff histogram %v: want at least two single timeouts", st.TimeoutsByBackoff[:4])
	}
}

func TestTahoeCollapsesOnFastRetransmit(t *testing.T) {
	scfg := SenderConfig{Variant: Tahoe, RWnd: 32, InitialCwnd: 12, InitialSsthresh: 12, TraceCwnd: true}
	eng, c := testConn(t, netem.NewScript(15), scfg, ReceiverConfig{AckEvery: 1})
	c.Sender.Start()
	for eng.Step() {
		if c.Sender.Stats().TDEvents > 0 {
			break
		}
	}
	if w := c.Sender.Cwnd(); w != 1 {
		t.Errorf("Tahoe cwnd after TD = %g, want 1", w)
	}
	c.Sender.Stop()
}

func TestKarnNoSampleFromRetransmission(t *testing.T) {
	// Force a retransmission of the timed segment and check that no
	// RTT sample with absurd value is absorbed. With a 0.1 s path RTT,
	// every valid sample is ~0.1 s; a Karn violation would feed in a
	// sample including the RTO wait.
	scfg := SenderConfig{RWnd: 2, MinRTO: 0.4}
	eng, c := testConn(t, netem.NewScript(2), scfg, ReceiverConfig{AckEvery: 1})
	_ = eng
	res := c.Run(30)
	for _, r := range res.Trace.Kind(trace.KindRoundSample) {
		if r.Val > 0.35 {
			t.Errorf("RTT sample %g leaked through a retransmission (Karn violation)", r.Val)
		}
	}
	if res.Stats.RTTSamples == 0 {
		t.Error("no RTT samples at all")
	}
}

func TestDelayedAckRoughlyHalvesAcks(t *testing.T) {
	eng, c := testConn(t, nil, SenderConfig{RWnd: 16}, ReceiverConfig{AckEvery: 2})
	_ = eng
	res := c.Run(30)
	ratio := float64(res.Stats.AcksReceived) / float64(res.Delivered)
	if ratio < 0.4 || ratio > 0.7 {
		t.Errorf("acks/packets = %g, want ~0.5 with delayed ACKs", ratio)
	}
}

func TestAckEveryOneAcksEachPacket(t *testing.T) {
	eng, c := testConn(t, nil, SenderConfig{RWnd: 16}, ReceiverConfig{AckEvery: 1})
	_ = eng
	res := c.Run(10)
	ratio := float64(res.Stats.AcksReceived) / float64(res.Delivered)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("acks/packets = %g, want ~1", ratio)
	}
}

func TestReceiverFillsHoles(t *testing.T) {
	var eng sim.Engine
	var acks []uint64
	rcv := NewReceiver(&eng, netem.NewLink(&eng, netem.LinkConfig{}), func(p pkt.Packet) {
		acks = append(acks, p.Seq)
	}, ReceiverConfig{AckEvery: 1})
	for _, seq := range []uint64{1, 3, 4, 2, 5} {
		rcv.OnPacket(pkt.Packet{Seq: seq})
		eng.Run()
	}
	if rcv.Delivered() != 5 {
		t.Errorf("delivered = %d, want 5", rcv.Delivered())
	}
	// ACKs: 2 (in order), 2 (dup), 2 (dup), 5 (hole filled), 6.
	want := []uint64{2, 2, 2, 5, 6}
	if len(acks) != len(want) {
		t.Fatalf("acks = %v, want %v", acks, want)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Errorf("ack %d = %d, want %d", i, acks[i], want[i])
		}
	}
}

func TestReceiverCountsDuplicates(t *testing.T) {
	var eng sim.Engine
	rcv := NewReceiver(&eng, netem.NewLink(&eng, netem.LinkConfig{}), func(pkt.Packet) {}, ReceiverConfig{AckEvery: 1})
	rcv.OnPacket(pkt.Packet{Seq: 1})
	rcv.OnPacket(pkt.Packet{Seq: 1})
	rcv.OnPacket(pkt.Packet{Seq: 3})
	rcv.OnPacket(pkt.Packet{Seq: 3})
	eng.Run()
	if rcv.Duplicates() != 2 {
		t.Errorf("duplicates = %d, want 2", rcv.Duplicates())
	}
	if rcv.Received() != 4 {
		t.Errorf("received = %d, want 4", rcv.Received())
	}
}

func TestReceiverIgnoresTFRCData(t *testing.T) {
	var eng sim.Engine
	rcv := NewReceiver(&eng, netem.NewLink(&eng, netem.LinkConfig{}), func(pkt.Packet) {}, ReceiverConfig{})
	rcv.OnPacket(pkt.Packet{Seq: 1, Kind: pkt.RateData}) // a TFRC datagram sharing the link
	if rcv.Received() != 0 {
		t.Error("TFRC data should not count as received TCP data")
	}
}

func TestTraceIsValidAndOrdered(t *testing.T) {
	eng, c := testConn(t, netem.NewBernoulli(0.02, sim.NewRNG(1)), SenderConfig{RWnd: 16}, ReceiverConfig{})
	_ = eng
	res := c.Run(120)
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if res.Trace.PacketsSent() != res.Stats.TotalSent() {
		t.Errorf("trace packet count %d != stats %d", res.Trace.PacketsSent(), res.Stats.TotalSent())
	}
	if got := res.Trace.Count(trace.KindTimeoutFired); got != res.Stats.TimeoutEvents {
		t.Errorf("trace timeouts %d != stats %d", got, res.Stats.TimeoutEvents)
	}
	if got := res.Trace.Count(trace.KindTDIndication); got != res.Stats.TDEvents {
		t.Errorf("trace TDs %d != stats %d", got, res.Stats.TDEvents)
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Duration: 10, Stats: SenderStats{PacketsSent: 90, Retransmits: 10, TDEvents: 3, TimeoutEvents: 2}, Delivered: 85}
	if r.SendRate() != 10 {
		t.Errorf("SendRate = %g, want 10", r.SendRate())
	}
	if r.Throughput() != 8.5 {
		t.Errorf("Throughput = %g, want 8.5", r.Throughput())
	}
	if got := r.LossIndicationRate(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("LossIndicationRate = %g, want 0.05", got)
	}
	var zero Result
	if zero.SendRate() != 0 || zero.Throughput() != 0 || zero.LossIndicationRate() != 0 {
		t.Error("zero Result should report zero rates")
	}
	if r.String() == "" {
		t.Error("String empty")
	}
}

func TestThroughputNeverExceedsSendRate(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.15} {
		eng, c := testConn(t, netem.NewBernoulli(p, sim.NewRNG(uint64(p*1000))), SenderConfig{RWnd: 20}, ReceiverConfig{})
		_ = eng
		res := c.Run(300)
		if res.Throughput() > res.SendRate() {
			t.Errorf("p=%g: throughput %g exceeds send rate %g", p, res.Throughput(), res.SendRate())
		}
	}
}

func TestSenderStopsCleanly(t *testing.T) {
	eng, c := testConn(t, nil, SenderConfig{RWnd: 8}, ReceiverConfig{})
	res := c.Run(5)
	sent := res.Stats.TotalSent()
	// Draining the engine after Stop must not transmit more data.
	eng.Run()
	if c.Sender.Stats().TotalSent() != sent {
		t.Error("sender transmitted after Stop")
	}
}

func TestRunConnectionConvenience(t *testing.T) {
	res := RunConnection(ConnConfig{
		Sender: SenderConfig{RWnd: 8},
		Path:   netem.SymmetricPath(0.05, nil),
	}, 10)
	if res.Stats.TotalSent() == 0 || res.Delivered == 0 {
		t.Errorf("convenience run produced nothing: %v", res)
	}
}
