package pftk

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestFacadeModelFunctions(t *testing.T) {
	pr := NewParams(0.2, 2.0, 12)
	p := 0.02
	full := SendRate(p, pr)
	if full <= 0 || math.IsInf(full, 0) {
		t.Fatalf("SendRate = %g", full)
	}
	if a := SendRateApprox(p, pr); a <= 0 {
		t.Errorf("approx = %g", a)
	}
	td := SendRateTDOnly(p, pr)
	if td <= full {
		t.Errorf("TD-only %g should exceed full %g at 2%% loss with Wm=12", td, full)
	}
	tput := Throughput(p, pr)
	if tput > full {
		t.Errorf("throughput %g above send rate %g", tput, full)
	}
}

func TestFacadeModelDispatch(t *testing.T) {
	pr := NewParams(0.2, 2.0, 12)
	for _, m := range []Model{ModelFull, ModelApprox, ModelTDOnly, ModelThroughput, ModelNoTimeout} {
		if r := m.Rate(0.05, pr); !(r > 0) {
			t.Errorf("%v rate = %g", m, r)
		}
	}
}

func TestFacadeInverse(t *testing.T) {
	pr := NewParams(0.2, 2.0, 0)
	rate := SendRate(0.03, pr)
	p, err := LossRateFor(rate, pr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.03) > 1e-4 {
		t.Errorf("inverse gave %g, want 0.03", p)
	}
	if f := FriendlyRate(0, pr); math.IsInf(f, 0) {
		t.Error("FriendlyRate must be finite")
	}
}

func TestFacadeCurve(t *testing.T) {
	pr := NewParams(0.2, 2.0, 12)
	c := Curve(ModelFull, pr, 1e-3, 0.3, 10)
	if len(c) != 10 {
		t.Fatalf("curve length %d", len(c))
	}
}

func TestSimulateLossless(t *testing.T) {
	res := runSim(SimConfig{RTT: 0.1, Wm: 8, Duration: 30, Seed: 1})
	if res.Stats.Retransmits != 0 {
		t.Errorf("lossless sim retransmitted %d", res.Stats.Retransmits)
	}
	ceiling := 8 / 0.1
	if r := res.SendRate(); r < 0.7*ceiling || r > 1.05*ceiling {
		t.Errorf("rate %g, want near %g", r, ceiling)
	}
}

func TestSimulateMatchesModel(t *testing.T) {
	res := runSim(SimConfig{RTT: 0.1, LossRate: 0.02, Wm: 64, Duration: 2000, Seed: 7, MinRTO: 1})
	sum := Analyze(res.Trace)
	if sum.LossIndications == 0 {
		t.Fatal("no loss indications")
	}
	pr := Params{RTT: sum.MeanRTT, T0: sum.MeanT0, Wm: 64, B: 2}
	if pr.RTT <= 0 {
		pr.RTT = 0.1
	}
	if pr.T0 <= 0 {
		pr.T0 = 1
	}
	pred := SendRate(sum.P, pr)
	if ratio := res.SendRate() / pred; ratio < 0.5 || ratio > 2 {
		t.Errorf("measured/model = %g", ratio)
	}
}

func TestSimulateVariants(t *testing.T) {
	for _, v := range []string{"reno", "tahoe", "linux", "irix", ""} {
		res := runSim(SimConfig{RTT: 0.1, LossRate: 0.05, Wm: 16, Duration: 120, Seed: 3, Variant: v})
		if res.Stats.TotalSent() == 0 {
			t.Errorf("variant %q sent nothing", v)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), `pftk: unknown TCP variant "bogus"`) {
			t.Errorf("unknown variant: recovered %v, want a pftk: panic naming it", r)
		}
	}()
	Sim(WithOS("bogus"), WithDuration(1))
}

func TestSimulateBurstLoss(t *testing.T) {
	res := runSim(SimConfig{RTT: 0.1, LossRate: 0.01, BurstDur: 0.2, Wm: 16, Duration: 600, Seed: 5, MinRTO: 1})
	sum := Analyze(res.Trace)
	if sum.TimeoutSequences() == 0 {
		t.Error("burst losses should produce timeout sequences")
	}
}

func TestAnalyzeEventsAndIntervals(t *testing.T) {
	res := runSim(SimConfig{RTT: 0.1, LossRate: 0.03, Wm: 16, Duration: 600, Seed: 9, MinRTO: 1})
	sum := Analyze(res.Trace)
	if len(sum.Events) == 0 {
		t.Fatal("no events")
	}
	ivs := Intervals(res.Trace, sum.Events, 100)
	if len(ivs) != 6 {
		t.Errorf("intervals = %d, want 6", len(ivs))
	}
	total := 0
	for _, iv := range ivs {
		total += iv.Packets
	}
	if total != res.Stats.TotalSent() {
		t.Errorf("interval packets %d != total %d", total, res.Stats.TotalSent())
	}
}

func TestRTTWindowCorrelationFacade(t *testing.T) {
	res := runSim(SimConfig{RTT: 0.1, LossRate: 0.02, Wm: 16, Duration: 1000, Seed: 11, MinRTO: 1})
	rho := RTTWindowCorrelation(res.Trace)
	if math.IsNaN(rho) || math.Abs(rho) > 0.4 {
		t.Errorf("correlation = %g on a constant-delay path", rho)
	}
}

func TestSimulateDefaults(t *testing.T) {
	res := runSim(SimConfig{Seed: 13})
	if res.Duration != 100 {
		t.Errorf("default duration = %g", res.Duration)
	}
	if res.Stats.TotalSent() == 0 {
		t.Error("defaults produced no traffic")
	}
}

func TestSimulateTransferCompletes(t *testing.T) {
	dt := runSim(SimConfig{RTT: 0.1, Wm: 16, Seed: 1, totalPackets: 200, transferDeadline: 120}).TransferTime
	if dt <= 0 || dt >= 120 {
		t.Errorf("lossless 200-packet transfer time = %g", dt)
	}
	// With loss it takes longer but still completes.
	lossy := runSim(SimConfig{RTT: 0.1, LossRate: 0.05, Wm: 16, MinRTO: 1, Seed: 2, totalPackets: 200, transferDeadline: 600}).TransferTime
	if lossy <= dt || lossy >= 600 {
		t.Errorf("lossy transfer time = %g (lossless %g)", lossy, dt)
	}
	// Burst-loss variant exercises the TimedBurst path.
	burst := runSim(SimConfig{RTT: 0.1, LossRate: 0.02, BurstDur: 0.15, Wm: 16, MinRTO: 1, Seed: 3, totalPackets: 200, transferDeadline: 600}).TransferTime
	if burst <= 0 || burst >= 600 {
		t.Errorf("burst transfer time = %g", burst)
	}
}

func TestShortFlowFacade(t *testing.T) {
	pr := NewParams(0.1, 1.2, 64)
	tN := ShortFlowTime(500, 0.02, pr)
	if tN <= 0 {
		t.Fatalf("ShortFlowTime = %g", tN)
	}
	if r := ShortFlowRate(500, 0.02, pr); math.Abs(r-500/tN) > 1e-9 {
		t.Errorf("ShortFlowRate inconsistent: %g vs %g", r, 500/tN)
	}
	// Model tracks a simulated transfer of the same size.
	sim := runSim(SimConfig{RTT: 0.1, LossRate: 0.02, Wm: 64, MinRTO: 1, Seed: 4, totalPackets: 500, transferDeadline: 3600}).TransferTime
	if ratio := sim / tN; ratio < 0.3 || ratio > 3 {
		t.Errorf("simulated %g vs model %g (ratio %.2f)", sim, tN, ratio)
	}
}

func TestSendRateTDOnlyDefaultB(t *testing.T) {
	pr := Params{RTT: 0.2, T0: 2} // B unset: defaults to 2
	withDefault := SendRateTDOnly(0.02, pr)
	pr.B = 2
	explicit := SendRateTDOnly(0.02, pr)
	if withDefault != explicit {
		t.Errorf("default-B path diverges: %g vs %g", withDefault, explicit)
	}
}
