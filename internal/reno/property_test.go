package reno

import (
	"math"
	"testing"

	"pftk/internal/netem"
	"pftk/internal/proptest"
	"pftk/internal/sim"
	"pftk/internal/trace"
)

// TestQuickProtocolInvariants drives randomized connections and checks the
// invariants that must hold regardless of the loss pattern:
//
//   - the cumulative acknowledgment point never regresses,
//   - in-flight data never exceeds the advertised window,
//   - the trace is well formed and its packet count matches the counters,
//   - everything delivered in order is eventually bounded by what was
//     sent.
func TestQuickProtocolInvariants(t *testing.T) {
	f := func(seed uint64, dropPct, wndRaw, durRaw uint8) bool {
		drop := float64(dropPct%30) / 100
		wnd := int(wndRaw%30) + 2
		dur := float64(durRaw%60) + 20

		var eng sim.Engine
		cfg := ConnConfig{
			Sender: SenderConfig{RWnd: wnd, MinRTO: 0.5, Tick: 0.1},
			Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(drop, sim.NewRNG(seed))),
		}
		c := NewConnection(&eng, cfg)
		c.Sender.Start()

		prevUna := uint64(0)
		deadline := dur
		for eng.Now() < deadline {
			if !eng.Step() {
				break
			}
			if c.Sender.una < prevUna {
				t.Logf("una regressed: %d -> %d", prevUna, c.Sender.una)
				return false
			}
			prevUna = c.Sender.una
			if f := c.Sender.InFlight(); f > wnd {
				t.Logf("flight %d > window %d", f, wnd)
				return false
			}
		}
		c.Sender.Stop()

		tr := c.Sender.Trace()
		if err := tr.Validate(); err != nil {
			t.Logf("trace invalid: %v", err)
			return false
		}
		st := c.Sender.Stats()
		if tr.PacketsSent() != st.TotalSent() {
			t.Logf("trace packets %d != stats %d", tr.PacketsSent(), st.TotalSent())
			return false
		}
		if int(c.Receiver.Delivered()) > st.PacketsSent {
			t.Logf("delivered %d > distinct sent %d", c.Receiver.Delivered(), st.PacketsSent)
			return false
		}
		return true
	}
	proptest.Check(t, f, 60)
}

// TestQuickEventuallyDeliversUnderAnyScriptedLoss drops arbitrary (finite)
// packet sets and checks the protocol always recovers: every finite
// transfer completes once the loss script is exhausted.
func TestQuickEventuallyDeliversUnderAnyScriptedLoss(t *testing.T) {
	f := func(drops []uint16) bool {
		// Drop up to 40 of the first 200 offered packets.
		script := map[int]bool{}
		for i, d := range drops {
			if i >= 40 {
				break
			}
			script[int(d%200)] = true
		}
		drop := make([]int, 0, len(script))
		for d := range script {
			drop = append(drop, d)
		}
		cfg := ConnConfig{
			Sender: SenderConfig{RWnd: 8, MinRTO: 0.3, Tick: 0.1, TotalPackets: 150},
			Path:   netem.SymmetricPath(0.02, netem.NewScript(drop...)),
		}
		var eng sim.Engine
		c := NewConnection(&eng, cfg)
		_, done := c.RunUntilComplete(600)
		if !c.Sender.Complete() {
			t.Logf("transfer stuck with drops %v (done=%g)", drop, done)
			return false
		}
		return c.Receiver.Delivered() == 150
	}
	proptest.Check(t, f, 40)
}

// TestAckPathLoss injects heavy loss on the *reverse* path: cumulative
// ACKs make TCP resilient to ACK loss, so the transfer must still
// complete, merely more slowly and with spurious retransmissions.
func TestAckPathLoss(t *testing.T) {
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 16, MinRTO: 0.5, Tick: 0.1, TotalPackets: 500},
		Path: netem.PathConfig{
			Forward: netem.LinkConfig{Delay: netem.ConstantDelay(0.05)},
			Reverse: netem.LinkConfig{
				Delay: netem.ConstantDelay(0.05),
				Loss:  netem.NewBernoulli(0.3, sim.NewRNG(5)),
			},
		},
	}
	var eng sim.Engine
	c := NewConnection(&eng, cfg)
	_, done := c.RunUntilComplete(600)
	if !c.Sender.Complete() {
		t.Fatalf("transfer did not survive 30%% ACK loss (delivered %d)", c.Receiver.Delivered())
	}
	if done >= 600 {
		t.Error("no completion time recorded")
	}
	// A lossless forward path means every original arrives; duplicates
	// can occur only via retransmission.
	if got := c.Receiver.Delivered(); got != 500 {
		t.Errorf("delivered %d, want 500", got)
	}
}

// TestBidirectionalLossStorm is the survival test: 15% loss in both
// directions plus a tiny window. The connection must keep making forward
// progress (no deadlock, no livelock).
func TestBidirectionalLossStorm(t *testing.T) {
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 4, MinRTO: 0.3, Tick: 0.1},
		Path: netem.PathConfig{
			Forward: netem.LinkConfig{
				Delay: netem.ConstantDelay(0.05),
				Loss:  netem.NewBernoulli(0.15, sim.NewRNG(7)),
			},
			Reverse: netem.LinkConfig{
				Delay: netem.ConstantDelay(0.05),
				Loss:  netem.NewBernoulli(0.15, sim.NewRNG(8)),
			},
		},
	}
	res := RunConnection(cfg, 1200)
	if res.Delivered < 100 {
		t.Errorf("only %d packets delivered in 1200s of bidirectional loss", res.Delivered)
	}
	if res.Stats.TimeoutEvents == 0 {
		t.Error("a loss storm without timeouts is implausible")
	}
}

// TestZeroDelayPath exercises the degenerate path with no propagation
// delay at all: events collapse onto single instants and the FIFO
// ordering of the engine must keep the protocol coherent.
func TestZeroDelayPath(t *testing.T) {
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 8, TotalPackets: 200},
		Path:   netem.PathConfig{}, // zero delay, infinite rate, no loss
	}
	var eng sim.Engine
	c := NewConnection(&eng, cfg)
	_, _ = c.RunUntilComplete(10)
	if !c.Sender.Complete() {
		t.Fatal("zero-delay transfer did not complete")
	}
	if c.Sender.Stats().Retransmits != 0 {
		t.Error("zero-delay lossless path retransmitted")
	}
}

// TestDuplicatedTraceKindsConsistent cross-checks the Val convention on
// retransmission records: Val=1 for timeout-driven, 0 for fast
// retransmits, and their counts match the stats.
func TestRetransmitFlavorsConsistent(t *testing.T) {
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 16, MinRTO: 0.5, Tick: 0.1},
		Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(0.07, sim.NewRNG(11))),
	}
	res := RunConnection(cfg, 600)
	var fast, timeout int
	for _, r := range res.Trace.Kind(trace.KindRetransmit) {
		if r.Val == 1 {
			timeout++
		} else {
			fast++
		}
	}
	if fast != res.Stats.FastRetx {
		t.Errorf("trace fast retx %d != stats %d", fast, res.Stats.FastRetx)
	}
	if timeout != res.Stats.TimeoutRetx {
		t.Errorf("trace timeout retx %d != stats %d", timeout, res.Stats.TimeoutRetx)
	}
}

// TestAckPacingSmoothsSender rate-limits the *reverse* path: ACKs are
// serialized through the slow link and arrive evenly spaced, which paces
// the ACK-clocked sender. The coefficient of variation of inter-send gaps
// must drop relative to an unconstrained reverse path, where ACKs (and
// hence sends) arrive in window-sized clumps — the ACK-clocking dynamics
// beneath the paper's rounds abstraction.
func TestAckPacingSmoothsSender(t *testing.T) {
	gapCV := func(reverse netem.LinkConfig) float64 {
		cfg := ConnConfig{
			Sender: SenderConfig{RWnd: 32, MinRTO: 1},
			Path: netem.PathConfig{
				Forward: netem.LinkConfig{Delay: netem.ConstantDelay(0.05)},
				Reverse: reverse,
			},
		}
		res := RunConnection(cfg, 300)
		var gaps []float64
		last := -1.0
		for _, r := range res.Trace {
			if r.Kind != trace.KindSend {
				continue
			}
			if last >= 0 {
				gaps = append(gaps, r.Time-last)
			}
			last = r.Time
		}
		if len(gaps) < 100 {
			t.Fatalf("only %d send gaps", len(gaps))
		}
		mean := 0.0
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		varsum := 0.0
		for _, g := range gaps {
			varsum += (g - mean) * (g - mean)
		}
		return math.Sqrt(varsum/float64(len(gaps))) / mean
	}
	clumped := gapCV(netem.LinkConfig{Delay: netem.ConstantDelay(0.05)})
	// Reverse path just above the ACK rate: ACKs serialize and space out.
	paced := gapCV(netem.LinkConfig{Rate: 200, QueueCap: 64, Delay: netem.ConstantDelay(0.05)})
	t.Logf("inter-send gap CV: unconstrained %.2f, ACK-paced %.2f", clumped, paced)
	if paced >= clumped {
		t.Errorf("ACK pacing should smooth the sender: %.2f >= %.2f", paced, clumped)
	}
}
