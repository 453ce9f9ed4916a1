package tfrc

import (
	"math"
	"testing"

	"pftk/internal/core"
	"pftk/internal/netem"
	"pftk/internal/pkt"
	"pftk/internal/reno"
	"pftk/internal/sim"
	"pftk/internal/stats"
)

func TestLossHistoryWeightedAverage(t *testing.T) {
	h := NewLossHistory()
	// Build closed intervals [newest..oldest] = 100, 200 by feeding
	// packets and loss events.
	for i := 0; i < 200; i++ {
		h.OnPacket()
	}
	h.OnLossEvent()
	for i := 0; i < 100; i++ {
		h.OnPacket()
	}
	h.OnLossEvent()
	// open interval = 0 packets; closed = [100, 200] with weights 1, 1.
	want := (100.0 + 200.0) / 2
	if got := h.AverageInterval(); math.Abs(got-want) > 1e-9 {
		t.Errorf("average interval = %g, want %g", got, want)
	}
	if got := h.LossEventRate(); math.Abs(got-1/want) > 1e-12 {
		t.Errorf("loss event rate = %g, want %g", got, 1/want)
	}
	if h.Events() != 2 {
		t.Errorf("events = %d, want 2", h.Events())
	}
}

func TestLossHistoryOpenIntervalLiftsAverage(t *testing.T) {
	h := NewLossHistory()
	for i := 0; i < 10; i++ {
		h.OnPacket()
	}
	h.OnLossEvent()
	base := h.AverageInterval()
	// A long loss-free run must raise the estimate before the next loss
	// closes the interval.
	for i := 0; i < 1000; i++ {
		h.OnPacket()
	}
	if got := h.AverageInterval(); got <= base {
		t.Errorf("open interval did not lift the average: %g <= %g", got, base)
	}
}

func TestLossHistoryKeepsEightIntervals(t *testing.T) {
	h := NewLossHistory()
	for e := 0; e < 20; e++ {
		for i := 0; i < 50; i++ {
			h.OnPacket()
		}
		h.OnLossEvent()
	}
	if len(h.intervals) != len(lossIntervalWeights)+1 {
		t.Errorf("kept %d intervals, want %d", len(h.intervals), len(lossIntervalWeights)+1)
	}
}

func TestLossHistoryNoLoss(t *testing.T) {
	h := NewLossHistory()
	for i := 0; i < 100; i++ {
		h.OnPacket()
	}
	if h.LossEventRate() != 0 || h.AverageInterval() != 0 {
		t.Error("rate should be 0 before any loss event")
	}
}

// runFlow runs one TFRC flow over a Bernoulli-loss path and returns it.
func runFlow(t *testing.T, drop float64, dur float64, seed uint64) *Flow {
	t.Helper()
	var eng sim.Engine
	path := netem.NewPath(&eng, netem.SymmetricPath(0.05, netem.NewBernoulli(drop, sim.NewRNG(seed))))
	f := NewFlow(&eng, path, Config{})
	f.Start()
	eng.RunUntil(dur)
	f.Stop()
	return f
}

func TestFlowSlowStartWithoutLoss(t *testing.T) {
	f := runFlow(t, 0, 30, 1)
	if f.Rate() < 100 {
		t.Errorf("lossless flow rate = %g, want substantial growth from 2", f.Rate())
	}
	if f.Received() == 0 {
		t.Error("nothing received")
	}
}

func TestFlowConvergesNearEquation(t *testing.T) {
	drop := 0.02
	f := runFlow(t, drop, 600, 7)
	p := f.LossEventRate()
	if p <= 0 {
		t.Fatal("no loss events measured")
	}
	// The long-run send rate should be near the equation evaluated at
	// the measured loss event rate and RTT.
	pr := core.Params{RTT: math.Max(f.rttEst, 1e-3), T0: 4 * f.rttEst, Wm: 0, B: 2}
	want := core.SendRateApprox(p, pr)
	got := float64(f.Sent()) / 600
	if r := got / want; r < 0.4 || r > 2.5 {
		t.Errorf("flow rate %g vs equation %g (ratio %.2f, p=%.4f)", got, want, r, p)
	}
}

func TestFlowRespondsToLossIncrease(t *testing.T) {
	var eng sim.Engine
	loss := netem.NewBernoulli(0.002, sim.NewRNG(3))
	path := netem.NewPath(&eng, netem.SymmetricPath(0.05, loss))
	f := NewFlow(&eng, path, Config{})
	f.Start()
	eng.RunUntil(300)
	before := f.Rate()
	loss.P = 0.08 // congestion onset
	eng.RunUntil(600)
	f.Stop()
	after := f.Rate()
	if after > before/2 {
		t.Errorf("rate did not drop after 40x loss increase: %g -> %g", before, after)
	}
}

// TestFlowTCPFriendly is the headline property: under the same loss
// process, the TFRC flow's long-run rate stays within a small factor of a
// real (simulated) TCP connection's — it neither starves TCP nor is
// starved.
func TestFlowTCPFriendly(t *testing.T) {
	drop := 0.03
	// TCP Reno reference over an identical (but independent) path.
	res := reno.RunConnection(reno.ConnConfig{
		Sender: reno.SenderConfig{RWnd: 512, MinRTO: 0.3, Tick: 0.1},
		Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(drop, sim.NewRNG(11))),
	}, 1200)
	tcpRate := res.SendRate()

	f := runFlow(t, drop, 1200, 12)
	tfrcRate := float64(f.Sent()) / 1200

	ratio := tfrcRate / tcpRate
	t.Logf("tfrc %.1f pkts/s vs tcp %.1f pkts/s (ratio %.2f)", tfrcRate, tcpRate, ratio)
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("TFRC/TCP rate ratio = %.2f, want within [0.3, 3]", ratio)
	}
}

// TestFlowSmootherThanTCP checks TFRC's design goal: a smoother rate
// trajectory than TCP's sawtooth under the same conditions.
func TestFlowSmootherThanTCP(t *testing.T) {
	drop := 0.03
	window := 10.0

	// TFRC per-window send counts.
	var eng sim.Engine
	path := netem.NewPath(&eng, netem.SymmetricPath(0.05, netem.NewBernoulli(drop, sim.NewRNG(21))))
	f := NewFlow(&eng, path, Config{})
	f.Start()
	var tfrcCounts []float64
	prevSent := 0
	for w := 0; w < 60; w++ {
		eng.RunUntil(float64(w+1) * window)
		tfrcCounts = append(tfrcCounts, float64(f.Sent()-prevSent))
		prevSent = f.Sent()
	}
	f.Stop()

	// TCP per-window send counts from the trace.
	res := reno.RunConnection(reno.ConnConfig{
		Sender: reno.SenderConfig{RWnd: 512, MinRTO: 0.3, Tick: 0.1},
		Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(drop, sim.NewRNG(22))),
	}, 600)
	var tcpCounts []float64
	for w := 0; w < 60; w++ {
		n := 0
		for _, r := range res.Trace.Window(float64(w)*window, float64(w+1)*window) {
			if r.Kind == 1 || r.Kind == 2 { // send or retransmit
				n++
			}
		}
		tcpCounts = append(tcpCounts, float64(n))
	}

	// Skip the slow-start warmup windows for both.
	cv := func(xs []float64) float64 {
		xs = xs[6:]
		return stats.Std(xs) / stats.Mean(xs)
	}
	tfrcCV, tcpCV := cv(tfrcCounts), cv(tcpCounts)
	t.Logf("rate CV: tfrc %.3f, tcp %.3f", tfrcCV, tcpCV)
	if tfrcCV >= tcpCV {
		t.Errorf("TFRC rate CV %.3f not smoother than TCP %.3f", tfrcCV, tcpCV)
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.InitialRate != 2 || c.MaxRate != 10000 || c.FeedbackRTTs != 1 || c.B != 2 {
		t.Errorf("defaults: %+v", c)
	}
}

func TestFlowRateCap(t *testing.T) {
	var eng sim.Engine
	path := netem.NewPath(&eng, netem.SymmetricPath(0.01, nil))
	f := NewFlow(&eng, path, Config{MaxRate: 50})
	f.Start()
	eng.RunUntil(60)
	f.Stop()
	if f.Rate() > 50 {
		t.Errorf("rate %g exceeds cap 50", f.Rate())
	}
}

func TestRateLogRecordsTrajectory(t *testing.T) {
	f := runFlow(t, 0.02, 300, 31)
	if len(f.RateLog) < 10 {
		t.Fatalf("rate log has %d points", len(f.RateLog))
	}
	prev := 0.0
	for i, pt := range f.RateLog {
		if pt.Time < prev {
			t.Fatalf("rate log out of order at %d", i)
		}
		prev = pt.Time
		if pt.Rate <= 0 || pt.Rate > 10000 {
			t.Fatalf("rate log point %d out of range: %+v", i, pt)
		}
	}
	// After slow start the log should show both increases and decreases
	// (the controller breathing with the loss process).
	var ups, downs int
	for i := 1; i < len(f.RateLog); i++ {
		if f.RateLog[i].Rate > f.RateLog[i-1].Rate {
			ups++
		} else if f.RateLog[i].Rate < f.RateLog[i-1].Rate {
			downs++
		}
	}
	if ups == 0 || downs == 0 {
		t.Errorf("rate trajectory should oscillate: %d ups, %d downs", ups, downs)
	}
}

// linkFunc adapts a function to the Link interface.
type linkFunc func(p pkt.Packet, deliver func(pkt.Packet))

func (f linkFunc) Send(p pkt.Packet, deliver func(pkt.Packet)) { f(p, deliver) }

// TestFeedbackNamesItsReport: a feedback packet reads back exactly the
// report the receiver filed under its index, in whatever order feedback
// arrives and whichever packets are lost or duplicated, until reportSlots
// later reports have overwritten it.
func TestFeedbackNamesItsReport(t *testing.T) {
	var eng sim.Engine
	var f *Flow
	var sent []pkt.Packet
	var filed []report
	rev := linkFunc(func(p pkt.Packet, _ func(pkt.Packet)) {
		r, ok := f.report(p.Seq)
		if !ok || p.Kind != pkt.Feedback {
			t.Fatalf("feedback %+v does not name a filed report", p)
		}
		sent = append(sent, p)
		filed = append(filed, r)
	})
	f = NewFlowOnLinks(&eng, rev, rev, Config{})
	// Data arrives every 30 ms with every 13th packet missing, so the
	// reports carry varying loss-event and receive rates.
	for seq := uint64(1); seq <= 1000; seq++ {
		if seq%13 == 0 {
			continue
		}
		at := float64(seq) * 0.03
		p := pkt.Packet{Seq: seq, Sent: at, Kind: pkt.RateData}
		eng.Schedule(at, func() { f.onReceive(p) })
	}
	eng.Run()
	n := len(sent)
	if n <= 2*reportSlots {
		t.Fatalf("%d reports issued, want more than %d", n, 2*reportSlots)
	}
	distinct := map[report]bool{}
	for _, r := range filed {
		distinct[report{p: r.p, rate: r.rate}] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct reports; the test cannot tell them apart", len(distinct))
	}
	// The newest reportSlots reports arrive newest first, every third is
	// lost and every other one arrives twice.
	for i := n - 1; i >= n-reportSlots; i-- {
		if i%3 == 0 {
			continue
		}
		for range 1 + i%2 {
			if got, ok := f.report(sent[i].Seq); !ok || got != filed[i] {
				t.Errorf("report %d: got %+v (found %v), want %+v", sent[i].Seq, got, ok, filed[i])
			}
		}
	}
	// Older reports have been overwritten and read as stale.
	for i := 0; i < n-reportSlots; i++ {
		if _, ok := f.report(sent[i].Seq); ok {
			t.Errorf("report %d of %d still readable after %d later reports", sent[i].Seq, n, n-1-i)
		}
	}
}
