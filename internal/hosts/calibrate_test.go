package hosts

import (
	"math"
	"testing"

	"pftk/internal/analysis"
	"pftk/internal/reno"
)

func TestCalibrateOptionsNormalize(t *testing.T) {
	o := CalibrateOptions{}.normalize()
	if o.Iterations != 5 || o.ProbeDuration != 900 {
		t.Errorf("defaults: %+v", o)
	}
	e := CalibrateOptions{Iterations: 2, ProbeDuration: 100}.normalize()
	if e.Iterations != 2 || e.ProbeDuration != 100 {
		t.Errorf("explicit values overridden: %+v", e)
	}
}

func TestCalibrateImprovesLossRateFit(t *testing.T) {
	pair, _ := PairByName("void-sutton")
	opts := CalibrateOptions{Iterations: 4, ProbeDuration: 600}
	cal := pair.Calibrate(opts)

	measure := func(p Pair) float64 {
		res := reno.RunConnection(p.ConnConfig(0xD1CE), 900)
		events := analysis.GroundTruthLossEvents(res.Trace)
		return analysis.Summarize(res.Trace, events).P
	}
	target := pair.P()
	errCal := math.Abs(measure(cal) - target)
	// The calibrated pair must land close to the published rate.
	if errCal/target > 0.5 {
		t.Errorf("calibrated measurement off by %.0f%% of target %.4f", 100*errCal/target, target)
	}
	// The burst-duration knob must have been engaged.
	if cal.BurstDurOverride <= 0 {
		t.Error("calibration left BurstDurOverride unset")
	}
}

func TestCalibrateMixKnobDirection(t *testing.T) {
	// A TD-rich target pair should end with a shorter outage than a
	// timeout-dominated one of similar RTT.
	tdRich, _ := PairByName("manic-sutton")   // 60% TD
	toHeavy, _ := PairByName("manic-mafalda") // ~0% TD
	opts := CalibrateOptions{Iterations: 4, ProbeDuration: 600}
	calTD := tdRich.Calibrate(opts)
	calTO := toHeavy.Calibrate(opts)
	if calTD.BurstDur() >= calTO.BurstDur() {
		t.Errorf("TD-rich pair should have shorter outages: %.3f vs %.3f",
			calTD.BurstDur(), calTO.BurstDur())
	}
}

func TestCalibrateZeroTargetNoop(t *testing.T) {
	p := Pair{Sender: "a", Receiver: "b", RTT: 0.2, T0: 1, Wm: 8}
	if got := p.Calibrate(CalibrateOptions{}); got != p {
		t.Error("zero-loss pair should calibrate to itself")
	}
}

// The committed table answers only a known definition, field for field,
// under options that normalize to the defaults; everything else goes
// through Calibrate.
func TestCalibratedPairUsesTableOnlyForKnownDefinitions(t *testing.T) {
	def, _ := PairByName("manic-sutton")
	fitted := fittedPairs[def]
	for _, o := range []CalibrateOptions{{}, {Iterations: 5, ProbeDuration: 900}} {
		if got := CalibratedPair(def, o); got != fitted {
			t.Errorf("options %+v: got fit %v, want the committed %v", o, fitOf(got), fitOf(fitted))
		}
	}

	short := CalibrateOptions{Iterations: 1, ProbeDuration: 60}
	if got, want := CalibratedPair(def, short), def.Calibrate(short); got != want || got == fitted {
		t.Errorf("non-default options: got fit %v, want Calibrate's %v (not the committed %v)", fitOf(got), fitOf(want), fitOf(fitted))
	}

	variant := def
	variant.RTT = 0.25
	if got, want := CalibratedPair(variant, CalibrateOptions{}), variant.Calibrate(CalibrateOptions{}); got != want {
		t.Errorf("edited definition: got fit %v, want Calibrate's %v", fitOf(got), fitOf(want))
	}
}

// fitOf returns the two fitted parameters, for messages: a Pair prints
// through String, which omits them.
func fitOf(p Pair) [2]float64 { return [2]float64{p.DropRate, p.BurstDurOverride} }

func TestTDFractionAndBurstDur(t *testing.T) {
	p, _ := PairByName("manic-sutton")
	if f := p.TDFraction(); math.Abs(f-988.0/1638) > 1e-9 {
		t.Errorf("TD fraction = %g", f)
	}
	var zero Pair
	if zero.TDFraction() != 0 {
		t.Error("zero pair TD fraction should be 0")
	}
	// Heuristic duration: TD-rich pairs get sub-RTT outages.
	if d := p.BurstDur(); d > p.RTT {
		t.Errorf("TD-rich outage %g should be below one RTT %g", d, p.RTT)
	}
	// Override wins.
	p.BurstDurOverride = 1.23
	if p.BurstDur() != 1.23 {
		t.Error("override ignored")
	}
}

func TestSenderVariantFallback(t *testing.T) {
	p := Pair{Sender: "unknown-host", Receiver: "tove"}
	if v := p.SenderVariant(); v.Name != "reno" {
		t.Errorf("unknown sender variant = %s, want reno fallback", v.Name)
	}
	irix := Pair{Sender: "manic", Receiver: "tove"}
	if v := irix.SenderVariant(); v.Name != "irix" {
		t.Errorf("manic variant = %s", v.Name)
	}
}

func TestPairPZeroPackets(t *testing.T) {
	p := Pair{PaperLoss: 10}
	if p.P() != 0 {
		t.Error("zero packets should give p=0")
	}
}
