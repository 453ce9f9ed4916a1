package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"pftk"
	"pftk/internal/core"
)

// defaultModelErrorFactor is the default model-vs-measured envelope.
// The PFTK full model evaluated at the measured operating point tracks
// the simulator within ~1.1x on clean Bernoulli paths but drifts to
// ~7x on the worst timed-outage draws (timeout-dominated runs are the
// model's known weak spot); the default is that observed worst case
// with headroom, so the invariant catches an order-of-magnitude
// regression without drowning in the model's own documented error.
const defaultModelErrorFactor = 10

// Invariant names attached to violations.
const (
	InvGenerate     = "generate"          // the generator emitted an invalid case
	InvPanic        = "panic"             // the run panicked (flight dump in Detail)
	InvConservation = "conservation"      // per-link packet conservation (suffixed -fwd/-rev)
	InvSenderLink   = "sender-link"       // sender transmissions vs. link offered
	InvGroundTruth  = "ground-truth"      // trace analysis vs. sender counters
	InvPhaseAttrib  = "phase-attribution" // per-phase sums vs. run totals
	InvModelEnv     = "model-envelope"    // PFTK prediction vs. measured rate
	InvReplay       = "replay"            // same case, different bytes
	InvHook         = "hook"              // injected by a campaign Hook (tests)
	InvFlowConserve = "flow-conservation" // per-flow packet conservation at the shared bottleneck
	InvFlowSanity   = "flow-sanity"       // multi-flow aggregate coherence (rates, fairness, summaries)
)

// Violation is one failed invariant on one case.
type Violation struct {
	// Invariant names the failed check (the Inv* constants).
	Invariant string `json:"invariant"`
	// Detail is a human-readable account of the failure.
	Detail string `json:"detail"`
}

// Outcome is the serializable result of checking one case. It carries
// no wall-clock fields and no copy of the case (reproducible from the
// campaign spec, seed and index), so campaign reports are byte-stable
// across machines and worker counts.
type Outcome struct {
	// Index is the case's campaign index.
	Index int `json:"index"`
	// CaseHash is the canonical hash of the generated case.
	CaseHash string `json:"case_hash"`
	// Packets counts the sender's transmissions (originals plus
	// retransmissions).
	Packets int `json:"packets"`
	// Delivered counts distinct in-order packets at the receiver.
	Delivered uint64 `json:"delivered"`
	// LossIndications is the sender's ground-truth indication count.
	LossIndications int `json:"loss_indications"`
	// SendRate is the measured send rate, packets per second.
	SendRate float64 `json:"send_rate"`
	// Predicted is the full model's prediction at the measured
	// operating point (stationary cases only; 0 when not evaluated).
	Predicted float64 `json:"predicted,omitempty"`
	// ErrorFactor is max(Predicted/SendRate, SendRate/Predicted) when
	// the envelope check ran, else 0.
	ErrorFactor float64 `json:"error_factor,omitempty"`
	// ReplayHash digests the run's full observable output (trace,
	// counters, link stats, phase attribution); equal across replays of
	// the same case by the determinism invariant.
	ReplayHash string `json:"replay_hash"`
	// Violations lists every failed invariant, empty on a clean case.
	Violations []Violation `json:"violations,omitempty"`
}

// Failed reports whether any invariant failed.
func (o Outcome) Failed() bool { return len(o.Violations) > 0 }

// violate appends a formatted violation.
func (o *Outcome) violate(inv, format string, args ...any) {
	o.Violations = append(o.Violations, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// runData is one instrumented execution's complete observable output.
type runData struct {
	res    pftk.SimResult
	ls     pftk.PathStats
	phases []pftk.PhaseStat
}

// execute runs the case once, fully instrumented, converting a panic —
// an engine invariant failure or a scenario fault — into a violation
// carrying the flight recorder's dump.
func execute(c Case) (rd runData, vio *Violation) {
	flight := pftk.NewFlightRecorder(0)
	defer func() {
		if p := recover(); p != nil {
			vio = &Violation{
				Invariant: InvPanic,
				Detail:    fmt.Sprintf("case %d panicked: %v\n%s", c.Index, p, flight.String()),
			}
		}
	}()
	if c.Flows >= 2 {
		// Multi-flow case: symmetric flows through one shared
		// bottleneck. The single-flow instrumentation (link stats,
		// phase attribution) does not apply; the per-flow
		// bottleneck attribution in FlowResults is the ground truth the
		// flow invariants check instead.
		rd.res = pftk.Sim(
			pftk.WithPath(c.RTT),
			pftk.WithBurstLoss(c.LossRate, c.BurstDur),
			pftk.WithWindow(c.Wm),
			pftk.WithMinRTO(c.MinRTO),
			pftk.WithDuration(c.Duration),
			pftk.WithSeed(c.Seed),
			pftk.WithOS(c.Variant),
			pftk.WithDelayedACKs(c.AckEvery),
			pftk.WithFlowCount(c.Flows),
			pftk.WithBottleneck(pftk.Bottleneck{
				Rate:     c.FlowRate,
				QueueCap: c.FlowQueue,
				OneWay:   c.RTT / 2,
			}),
		)
		return rd, nil
	}
	rd.res = pftk.Sim(
		pftk.WithPath(c.RTT),
		pftk.WithBurstLoss(c.LossRate, c.BurstDur),
		pftk.WithWindow(c.Wm),
		pftk.WithMinRTO(c.MinRTO),
		pftk.WithDuration(c.Duration),
		pftk.WithSeed(c.Seed),
		pftk.WithOS(c.Variant),
		pftk.WithDelayedACKs(c.AckEvery),
		pftk.WithScenario(c.Scenario),
		pftk.WithPhaseStats(&rd.phases),
		pftk.WithLinkStats(&rd.ls),
		pftk.WithFlightRecorder(flight),
	)
	return rd, nil
}

// digest hashes every observable output of a run: the sender trace, the
// sender counters, the receiver count, both links' statistics, and the
// per-phase attribution. Two executions of the same case must digest
// identically — the simulator's whole determinism story in one string.
func (rd runData) digest() string {
	h := sha256.New()
	for i := range rd.res.Trace {
		_, _ = fmt.Fprintf(h, "%v\n", rd.res.Trace[i])
	}
	_, _ = fmt.Fprintf(h, "stats %+v delivered %d dur %v\n", rd.res.Stats, rd.res.Delivered, rd.res.Duration)
	_, _ = fmt.Fprintf(h, "fwd %+v\nrev %+v\n", rd.ls.Forward, rd.ls.Reverse)
	for _, ph := range rd.phases {
		_, _ = fmt.Fprintf(h, "phase %+v\n", ph)
	}
	// Multi-flow runs: every flow's trace, counters and bottleneck
	// attribution (empty on single-flow runs, leaving their digests
	// unchanged).
	for _, fr := range rd.res.FlowResults {
		_, _ = fmt.Fprintf(h, "flow %d stats %+v delivered %d link %+v\n",
			fr.ID, fr.Result.Stats, fr.Result.Delivered, fr.Link)
		for i := range fr.Result.Trace {
			_, _ = fmt.Fprintf(h, "%v\n", fr.Result.Trace[i])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RunCase executes one case twice — once to check the global invariants
// on its instrumented output, once to check byte-exact replay — and
// returns the outcome. env configures the model-envelope check (a zero
// ModelErrorFactor disables it).
func RunCase(c Case, env Envelope) Outcome {
	out := Outcome{Index: c.Index, CaseHash: c.Hash()}
	rd, vio := execute(c)
	if vio != nil {
		out.Violations = append(out.Violations, *vio)
		return out
	}
	out.Packets = rd.res.Stats.TotalSent()
	out.Delivered = rd.res.Delivered
	out.LossIndications = rd.res.Stats.LossIndications()
	out.SendRate = rd.res.SendRate()
	out.ReplayHash = rd.digest()

	if c.Flows >= 2 {
		// Multi-flow cases have their own invariant set; the
		// single-flow checks read instrumentation that multi-flow runs
		// do not populate.
		checkFlowConservation(&out, c, rd)
		checkFlowSanity(&out, c, rd)
	} else {
		checkConservation(&out, rd)
		checkSenderLink(&out, rd)
		checkGroundTruth(&out, rd)
		checkPhaseAttribution(&out, c, rd)
		checkModelEnvelope(&out, c, rd, env)
	}

	rd2, vio2 := execute(c)
	if vio2 != nil {
		out.violate(InvReplay, "replay of case %d panicked where first run did not: %s", c.Index, vio2.Detail)
		return out
	}
	if h2 := rd2.digest(); h2 != out.ReplayHash {
		out.violate(InvReplay, "case %d is not replay-stable: first run %s, second run %s",
			c.Index, out.ReplayHash[:16], h2[:16])
	}
	return out
}

// checkConservation verifies per-direction packet conservation: every
// packet offered to a link is delivered, dropped, or still resident
// (queued plus at most one in service) when the run ends.
func checkConservation(out *Outcome, rd runData) {
	check := func(dir string, ls pftk.LinkStats) {
		residual := (ls.Offered - ls.RandomDrops + ls.Duplicated) - ls.Delivered - ls.QueueDrops
		if residual < 0 || residual > ls.MaxQueue+1 {
			out.violate(InvConservation+"-"+dir,
				"residual %d outside [0, maxQueue+1=%d]: %+v", residual, ls.MaxQueue+1, ls)
		}
	}
	check("fwd", rd.ls.Forward)
	check("rev", rd.ls.Reverse)
}

// checkSenderLink verifies that the forward link saw exactly the
// sender's transmissions: nothing invented, nothing lost between the
// two layers.
func checkSenderLink(out *Outcome, rd runData) {
	if rd.ls.Forward.Offered != rd.res.Stats.TotalSent() {
		out.violate(InvSenderLink, "forward link offered %d packets, sender transmitted %d",
			rd.ls.Forward.Offered, rd.res.Stats.TotalSent())
	}
}

// checkGroundTruth verifies the trace analysis against the sender's own
// counters: ground-truth loss-event extraction must reproduce the
// sender's TD count and total indications exactly.
func checkGroundTruth(out *Outcome, rd runData) {
	sum := pftk.Analyze(rd.res.Trace, pftk.WithGroundTruth())
	if sum.TD != rd.res.Stats.TDEvents {
		out.violate(InvGroundTruth, "analysis found %d TD events, sender counted %d",
			sum.TD, rd.res.Stats.TDEvents)
	}
	// The analysis counts timeout *sequences* (consecutive backoff fires
	// collapse into one indication); the sender counts individual fires,
	// but every sequence starts at backoff exponent 0, so the sequence
	// count must equal the sender's exponent-zero fire count.
	if sum.TimeoutSequences() != rd.res.Stats.TimeoutsByBackoff[0] {
		out.violate(InvGroundTruth, "analysis found %d timeout sequences, sender started %d",
			sum.TimeoutSequences(), rd.res.Stats.TimeoutsByBackoff[0])
	}
	if sum.PacketsSent != rd.res.Stats.TotalSent() {
		out.violate(InvGroundTruth, "analysis counted %d transmissions, sender counted %d",
			sum.PacketsSent, rd.res.Stats.TotalSent())
	}
}

// checkPhaseAttribution verifies the scenario runner's per-segment
// accounting: segments tile [0, duration) contiguously and their
// offered/dropped/delivered sums telescope to the forward link totals.
func checkPhaseAttribution(out *Outcome, c Case, rd runData) {
	if c.Scenario == nil || len(rd.phases) == 0 {
		return
	}
	if rd.phases[0].Start != 0 {
		out.violate(InvPhaseAttrib, "first segment starts at %v, want 0", rd.phases[0].Start)
	}
	for i := 1; i < len(rd.phases); i++ {
		//pftklint:ignore floatcmp adjacent bounds are copies of the same transition time
		if rd.phases[i].Start != rd.phases[i-1].End {
			out.violate(InvPhaseAttrib, "segment %d starts at %v but segment %d ends at %v",
				i, rd.phases[i].Start, i-1, rd.phases[i-1].End)
		}
	}
	last := rd.phases[len(rd.phases)-1].End
	//pftklint:ignore floatcmp the final bound is a copy of the run duration
	if last != rd.res.Duration {
		out.violate(InvPhaseAttrib, "last segment ends at %v, run lasted %v", last, rd.res.Duration)
	}
	var offered, dropped, delivered int
	for _, ph := range rd.phases {
		offered += ph.Offered
		dropped += ph.Dropped
		delivered += ph.Delivered
	}
	fwd := rd.ls.Forward
	if offered != fwd.Offered {
		out.violate(InvPhaseAttrib, "segments offered %d, link offered %d", offered, fwd.Offered)
	}
	if dropped != fwd.RandomDrops+fwd.QueueDrops {
		out.violate(InvPhaseAttrib, "segments dropped %d, link dropped %d",
			dropped, fwd.RandomDrops+fwd.QueueDrops)
	}
	if delivered != fwd.Delivered {
		out.violate(InvPhaseAttrib, "segments delivered %d, link delivered %d", delivered, fwd.Delivered)
	}
}

// checkFlowConservation verifies per-flow packet conservation at the
// shared bottleneck: for every flow, packets the link attributes to it
// must reconcile with the flow's own sender and receiver — nothing
// invented at the link, nothing delivered that was not offered, and at
// most a queue's worth unaccounted for when the run ends.
func checkFlowConservation(out *Outcome, c Case, rd runData) {
	if len(rd.res.FlowResults) != c.Flows {
		out.violate(InvFlowConserve, "case declares %d flows, run reports %d", c.Flows, len(rd.res.FlowResults))
		return
	}
	for _, fr := range rd.res.FlowResults {
		ls := fr.Link
		sent := fr.Result.Stats.TotalSent()
		// The flow's private access loss (LossRate > 0) drops packets
		// before the bottleneck, so offered is bounded by — and without
		// access loss equals — the sender's transmissions.
		if ls.Offered > sent {
			out.violate(InvFlowConserve, "flow %d: bottleneck offered %d > sender transmitted %d",
				fr.ID, ls.Offered, sent)
		}
		if c.LossRate == 0 && ls.Offered != sent {
			out.violate(InvFlowConserve, "flow %d: lossless access path but bottleneck offered %d != sender transmitted %d",
				fr.ID, ls.Offered, sent)
		}
		residual := ls.Offered - ls.RandomDrops - ls.QueueDrops - ls.Delivered
		if residual < 0 || residual > c.FlowQueue+1 {
			out.violate(InvFlowConserve, "flow %d: residual %d outside [0, queue+1=%d]: %+v",
				fr.ID, residual, c.FlowQueue+1, ls)
		}
		// Distinct in-order packets at the receiver cannot exceed the
		// link's arrivals for the flow.
		if fr.Result.Delivered > uint64(ls.Delivered) {
			out.violate(InvFlowConserve, "flow %d: receiver delivered %d > bottleneck delivered %d",
				fr.ID, fr.Result.Delivered, ls.Delivered)
		}
	}
}

// checkFlowSanity verifies the multi-flow aggregates cohere: per-flow
// summaries reproduce the senders' own counters, the fairness vectors
// are indexed per flow, and Jain's index is in its mathematical range.
func checkFlowSanity(out *Outcome, c Case, rd runData) {
	if len(rd.res.Flows) != len(rd.res.FlowResults) {
		out.violate(InvFlowSanity, "summaries %d != flow results %d", len(rd.res.Flows), len(rd.res.FlowResults))
		return
	}
	for i, fr := range rd.res.FlowResults {
		if sum := rd.res.Flows[i]; sum.PacketsSent != fr.Result.Stats.TotalSent() {
			out.violate(InvFlowSanity, "flow %d: summary counted %d transmissions, sender counted %d",
				i, sum.PacketsSent, fr.Result.Stats.TotalSent())
		}
	}
	f := rd.res.Fairness
	if len(f.Rates) != c.Flows || len(f.Predicted) != c.Flows {
		out.violate(InvFlowSanity, "fairness vectors sized %d/%d, want %d", len(f.Rates), len(f.Predicted), c.Flows)
	}
	if f.AggregateRate > 0 && (f.Jain <= 0 || f.Jain > 1+1e-12) {
		out.violate(InvFlowSanity, "jain index %v outside (0, 1]", f.Jain)
	}
}

// stationary reports whether the case's path is time-invariant: no
// scenario at all, or a scenario whose only program is a single
// phase-zero rewrite (the generator's spelling of a ge base loss
// process) with no faults.
func stationary(c Case) bool {
	if c.Scenario == nil {
		return true
	}
	if len(c.Scenario.Faults) > 0 {
		return false
	}
	return len(c.Scenario.Phases) == 1 && c.Scenario.Phases[0].At == 0
}

// checkModelEnvelope verifies the paper's own claim on stationary
// cases: the full model evaluated at the measured (p, RTT, T0, Wm)
// predicts the measured send rate within the envelope factor. Cases
// with a scenario are non-stationary — the model has no business
// predicting them — and cases with thin loss signal measure p too
// noisily to judge, so both are skipped.
func checkModelEnvelope(out *Outcome, c Case, rd runData, env Envelope) {
	if env.ModelErrorFactor <= 0 || !stationary(c) {
		return
	}
	if rd.res.Stats.LossIndications() < env.MinLossIndications {
		return
	}
	sum := pftk.Analyze(rd.res.Trace)
	params := core.Params{RTT: sum.MeanRTT, T0: sum.MeanT0, Wm: float64(c.Wm), B: c.AckEvery}
	if params.Validate() != nil || !(sum.P > 0) {
		return
	}
	pred := core.SendRateFull(sum.P, params)
	meas := rd.res.SendRate()
	if !(pred > 0) || !(meas > 0) {
		return
	}
	out.Predicted = pred
	out.ErrorFactor = math.Max(pred/meas, meas/pred)
	if out.ErrorFactor > env.ModelErrorFactor {
		out.violate(InvModelEnv,
			"model predicts %.1f pkt/s, measured %.1f pkt/s: factor %.2f exceeds envelope %.2f (p=%.4f rtt=%.3f t0=%.3f)",
			pred, meas, out.ErrorFactor, env.ModelErrorFactor, sum.P, sum.MeanRTT, sum.MeanT0)
	}
}
