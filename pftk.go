// Package pftk is a from-scratch Go implementation of the PFTK
// steady-state TCP throughput model from Padhye, Firoiu, Towsley and
// Kurose, "Modeling TCP Throughput: A Simple Model and Its Empirical
// Validation" (SIGCOMM 1998), together with everything needed to
// re-validate it: a packet-level TCP Reno simulator over an emulated
// network path, tcpdump-style trace capture and analysis, the
// numerically-solved Markov model the paper compares against, and an
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// # The model
//
// The headline result is B(p): the steady-state send rate of a saturated
// (bulk-transfer) TCP Reno connection as a function of the
// loss-indication rate p, the average round-trip time, the average first
// retransmission-timeout duration T0, and the receiver's advertised
// window Wm:
//
//	params := pftk.NewParams(0.2 /* RTT s */, 2.0 /* T0 s */, 12 /* Wm pkts */)
//	rate := pftk.SendRate(0.02, params) // packets per second at 2% loss
//
// SendRate implements the paper's "full model" (eq. 32); SendRateApprox
// the closed-form approximation (eq. 33); SendRateTDOnly the
// Mathis et al. square-root baseline the paper compares against;
// Throughput the receiver-side rate T(p) of eq. (37). LossRateFor inverts
// the model, which is the "TCP-friendly rate" computation that motivated
// the paper.
//
// # The validation stack
//
// Sim runs a packet-level TCP Reno bulk transfer over an emulated
// lossy path and returns both the measured rates and the sender-side
// event trace; Analyze runs the paper's trace-analysis methodology
// (loss-indication classification, Karn RTT filtering, 100-second
// intervals) over any trace. The cmd/experiments binary regenerates
// Table I, Table II and Figs. 7-13.
package pftk

import (
	"fmt"

	"pftk/internal/analysis"
	"pftk/internal/core"
	"pftk/internal/multiflow"
	"pftk/internal/netem"
	"pftk/internal/obs"
	"pftk/internal/reno"
	"pftk/internal/scenario"
	"pftk/internal/sim"
	"pftk/internal/trace"
)

// Params holds the model parameters (RTT, T0, Wm, b). See core.Params.
type Params = core.Params

// Model selects one of the analytic characterizations.
type Model = core.Model

// The available models.
const (
	// ModelFull is the paper's full model, eq. (32).
	ModelFull = core.ModelFull
	// ModelApprox is the approximate model, eq. (33).
	ModelApprox = core.ModelApprox
	// ModelTDOnly is the Mathis et al. baseline ("TD only"), eq. (20).
	ModelTDOnly = core.ModelTDOnly
	// ModelThroughput is the receiver-side throughput model, eq. (37).
	ModelThroughput = core.ModelThroughput
	// ModelNoTimeout is the no-timeout ablation of Section II-A.
	ModelNoTimeout = core.ModelNoTimeout
)

// DefaultB is the delayed-ACK ratio b = 2 used throughout the paper.
const DefaultB = core.DefaultB

// CurvePoint is one (p, rate) sample of a model curve.
type CurvePoint = core.CurvePoint

// NewParams returns Params for the given average RTT (seconds), timeout
// T0 (seconds) and receiver window wm (packets; <= 0 means unlimited),
// with delayed ACKs (b = 2).
func NewParams(rtt, t0, wm float64) Params { return core.NewParams(rtt, t0, wm) }

// SendRate returns the full-model send rate B(p) of eq. (32) in packets
// per second.
func SendRate(p float64, pr Params) float64 { return core.SendRateFull(p, pr) }

// SendRateApprox returns the approximate model of eq. (33).
func SendRateApprox(p float64, pr Params) float64 { return core.SendRateApprox(p, pr) }

// SendRateTDOnly returns the Mathis et al. square-root baseline of
// eq. (20), which ignores timeouts and the receiver window. An unset
// delayed-ACK ratio defaults to DefaultB inside core, identically for
// every caller.
func SendRateTDOnly(p float64, pr Params) float64 {
	return core.SendRateTDOnly(p, pr.RTT, float64(pr.B))
}

// Throughput returns the receiver-side rate T(p) of eq. (37).
func Throughput(p float64, pr Params) float64 { return core.Throughput(p, pr) }

// LossRateFor inverts the full model: the loss rate at which a connection
// with the given parameters achieves the target send rate (packets per
// second). This is the computation behind "TCP-friendly" rate control.
func LossRateFor(target float64, pr Params) (float64, error) {
	return core.LossRateFor(target, pr)
}

// FriendlyRate returns the TCP-friendly send rate for a non-TCP flow
// observing loss rate p on a path with the given parameters; always
// finite.
func FriendlyRate(p float64, pr Params) float64 { return core.FriendlyRate(p, pr) }

// Curve samples a model at n log-spaced loss rates in [pmin, pmax].
func Curve(m Model, pr Params, pmin, pmax float64, n int) []CurvePoint {
	return core.Curve(m, pr, pmin, pmax, n)
}

// Trace is a sender-side packet event trace.
type Trace = trace.Trace

// TraceRecord is one trace event.
type TraceRecord = trace.Record

// Summary is a Table II-style per-trace summary.
type Summary = analysis.Summary

// LossEvent is one classified loss indication.
type LossEvent = analysis.LossEvent

// Interval is one fixed-width analysis interval of a trace.
type Interval = analysis.Interval

// SimResult is the outcome of a simulated transfer. The embedded
// reno.Result carries the single-flow measurements (for multi-flow runs
// it is flow 0's result, kept for drop-in compatibility); the Flows,
// FlowResults and Fairness fields are populated only by multi-flow runs
// (WithFlows / WithFlowCount), and the Transfer fields only by finite
// transfers (WithTransfer).
type SimResult struct {
	reno.Result
	// Flows holds per-flow Table II-style summaries, computed by the
	// same loss-inference analysis as Analyze, indexed by flow ID.
	// (TFRC flows have no sender trace and summarize to zero.)
	Flows []Summary
	// FlowResults holds each flow's measured rates, loss, RTT,
	// bottleneck attribution and TD-only model prediction.
	FlowResults []FlowResult
	// Fairness aggregates the multi-flow run: Jain's index, aggregate
	// rate, utilization and the per-flow rate/prediction vectors.
	Fairness Fairness
	// TransferTime is the finite transfer's completion time in seconds
	// (the deadline when it did not finish).
	TransferTime float64
	// TransferComplete reports whether the finite transfer finished
	// before its deadline.
	TransferComplete bool
}

// Flow specifies one sender in a multi-flow simulation: its congestion
// control variant, path parameters and start offset. See WithFlows.
type Flow = multiflow.FlowSpec

// Bottleneck describes the link shared by all flows of a multi-flow
// simulation. See WithBottleneck.
type Bottleneck = multiflow.Bottleneck

// FlowResult is one flow's measured outcome in a multi-flow run.
type FlowResult = multiflow.FlowResult

// Fairness aggregates a multi-flow run: Jain's index and per-flow rates
// against the TD-only model predictions.
type Fairness = multiflow.Fairness

// Scenario is a declarative schedule of path changes and injected
// faults; see package internal/scenario for the semantics and
// ParseScenario for the JSON form.
type Scenario = scenario.Scenario

// Phase is one scheduled rewrite of the steady-state path parameters.
type Phase = scenario.Phase

// Fault is one transient perturbation window, optionally repeating.
type Fault = scenario.Fault

// LossSpec declaratively describes a steady-state loss process.
type LossSpec = scenario.LossSpec

// PhaseStat attributes packets offered/dropped/delivered on the data
// path to one scenario segment.
type PhaseStat = scenario.PhaseStat

// ParseScenario decodes and validates a JSON scenario document.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// ParseScenarioFile reads and parses the scenario document at path.
func ParseScenarioFile(path string) (*Scenario, error) { return scenario.ParseFile(path) }

// SimConfig describes a simulated bulk-transfer experiment at the level a
// model user thinks in; Sim's options fill it in and the run maps it onto
// the packet-level TCP Reno implementation and the path emulator.
type SimConfig struct {
	// RTT is the two-way propagation delay of the path in seconds.
	RTT float64
	// LossRate is the probability that a packet starts a loss burst.
	LossRate float64
	// BurstDur is the loss-outage duration in seconds (0 = isolated
	// single-packet losses).
	BurstDur float64
	// Wm is the receiver's advertised window in packets (default 64).
	Wm int
	// MinRTO floors the retransmission timeout, shaping T0 (default
	// 1 s).
	MinRTO float64
	// Duration is the transfer length in simulated seconds (default
	// 100).
	Duration float64
	// Seed makes the run reproducible.
	Seed uint64
	// Variant selects the sender's TCP flavor: "reno" (default),
	// "tahoe", "linux", "irix" or "newreno"; Sim panics on any other
	// name.
	Variant string
	// AckEvery is the receiver's delayed-ACK ratio b (default 2).
	AckEvery int
	// Scenario, when set, schedules time-varying path conditions and
	// fault injection over the run (see WithScenario).
	Scenario *Scenario

	// phaseStats, when set via WithPhaseStats, receives the per-phase
	// attribution after a scenario run.
	phaseStats *[]PhaseStat
	// flight, when set via WithFlightRecorder, is attached to the run's
	// engine so the last schedule/fire/cancel/drop operations are
	// retained for a post-mortem dump.
	flight *FlightRecorder
	// registry, when set via WithObs, instruments the engine, both link
	// directions, the sender and (when present) the scenario runner.
	registry *obs.Registry
	// linkStats, when set via WithLinkStats, receives both directions'
	// final link counters after the run.
	linkStats *PathStats
	// totalPackets, when positive, makes the transfer finite
	// (WithTransfer).
	totalPackets uint64
	// transferDeadline, when positive, selects the finite-transfer
	// execution path: run until totalPackets complete or the deadline
	// passes (WithTransfer).
	transferDeadline float64
	// flows, when non-empty, selects the multi-flow execution path
	// (WithFlows).
	flows []Flow
	// flowCount, when positive and flows is empty, replicates the
	// single-flow knobs into that many identical flows (WithFlowCount).
	flowCount int
	// bottleneck, when its Rate is positive, routes all flows through
	// one shared link; otherwise each flow gets a private path
	// (WithBottleneck).
	bottleneck Bottleneck
}

func (c SimConfig) variant() reno.Variant {
	v, ok := reno.VariantByName(c.Variant)
	if !ok {
		panic(fmt.Sprintf("pftk: unknown TCP variant %q (valid: %s)", c.Variant, reno.VariantNames))
	}
	return v
}

// buildConn assembles the engine, connection and (when a scenario is
// configured) the bound scenario runner for one simulated transfer.
// horizon bounds the expansion of unbounded periodic faults. When no
// scenario is configured, the construction — including the RNG fork
// sequence — is identical to the pre-scenario releases, so legacy
// configs reproduce their traces byte for byte.
func buildConn(c *SimConfig, horizon float64) (*reno.Connection, *scenario.Runner) {
	if c.RTT <= 0 {
		c.RTT = 0.1
	}
	rng := sim.NewRNG(c.Seed)
	var loss netem.LossModel
	switch {
	case c.LossRate <= 0:
		loss = nil
	case c.BurstDur > 0:
		loss = netem.NewTimedBurst(c.LossRate, c.BurstDur, rng.Fork("loss"))
	default:
		loss = netem.NewBernoulli(c.LossRate, rng.Fork("loss"))
	}
	cfg := reno.ConnConfig{
		Sender: reno.SenderConfig{
			Variant:      c.variant(),
			RWnd:         c.Wm,
			MinRTO:       c.MinRTO,
			TotalPackets: c.totalPackets,
		},
		Receiver: reno.ReceiverConfig{AckEvery: c.AckEvery},
		Path:     netem.SymmetricPath(c.RTT/2, loss),
	}
	eng := new(sim.Engine)
	eng.SetFlightRecorder(c.flight)
	if c.registry != nil {
		cfg.Sender.Metrics = reno.NewMetrics(c.registry)
		cfg.Path.Forward.Metrics = netem.NewLinkMetrics(c.registry, "netem.fwd")
		cfg.Path.Reverse.Metrics = netem.NewLinkMetrics(c.registry, "netem.rev")
		eng.SetHooks(sim.NewMetricHooks(c.registry))
	}
	conn := reno.NewConnection(eng, cfg)
	var runner *scenario.Runner
	if c.Scenario != nil {
		runner = scenario.Bind(eng, conn.Path, scenario.Config{
			Scenario: c.Scenario,
			RNG:      rng.Fork("scenario"),
			Base:     scenario.Base{RTT: c.RTT, Loss: loss},
			Horizon:  horizon,
			Registry: c.registry,
		})
	}
	return conn, runner
}

// Sim runs a saturated TCP bulk transfer over an emulated — optionally
// time-varying — path and returns the measured result, including the
// sender-side trace:
//
//	res := pftk.Sim(
//		pftk.WithPath(0.2),
//		pftk.WithLoss(0.02),
//		pftk.WithDuration(1000),
//		pftk.WithSeed(42),
//	)
//
// Defaults: 0.1 s RTT, lossless path, 100 s duration, Reno sender with a
// 64-packet window, delayed ACKs (b = 2).
func Sim(opts ...SimOption) SimResult {
	var c SimConfig
	for _, o := range opts {
		o(&c)
	}
	return runSim(c)
}

// runSim is the single execution path behind Sim. For a fixed config
// (including the seed) it must produce byte-identical traces — the
// contract the golden tests and serial==parallel campaign identity rest
// on.
func runSim(c SimConfig) SimResult {
	if c.Duration <= 0 {
		c.Duration = 100
	}
	if len(c.flows) > 0 || c.flowCount > 0 {
		return runMultiSim(c)
	}
	if c.transferDeadline > 0 {
		return runTransferSim(c)
	}
	conn, runner := buildConn(&c, c.Duration)
	res := conn.Run(c.Duration)
	if runner != nil && c.phaseStats != nil {
		*c.phaseStats = runner.Finish()
	}
	if c.linkStats != nil {
		*c.linkStats = PathStats{
			Forward: conn.Path.Forward.Stats(),
			Reverse: conn.Path.Reverse.Stats(),
		}
	}
	return SimResult{Result: res}
}

// runTransferSim is the finite-transfer execution path (WithTransfer).
func runTransferSim(c SimConfig) SimResult {
	deadline := c.transferDeadline
	conn, _ := buildConn(&c, deadline)
	res, done := conn.RunUntilComplete(deadline)
	out := SimResult{Result: res, TransferTime: done}
	out.TransferComplete = done < deadline
	if c.linkStats != nil {
		*c.linkStats = PathStats{
			Forward: conn.Path.Forward.Stats(),
			Reverse: conn.Path.Reverse.Stats(),
		}
	}
	return out
}

// runMultiSim is the multi-flow execution path (WithFlows,
// WithFlowCount): N flows on one engine, through a shared bottleneck
// when one is configured and over disjoint private paths otherwise.
// Scenario, observability and flight-recorder options apply only to
// single-flow runs and are ignored here.
func runMultiSim(c SimConfig) SimResult {
	flows := c.flows
	if len(flows) == 0 {
		flows = multiflow.SymmetricFlows(c.flowCount, Flow{
			Variant:  c.Variant,
			RTT:      c.RTT,
			LossRate: c.LossRate,
			BurstDur: c.BurstDur,
			Wm:       c.Wm,
			MinRTO:   c.MinRTO,
			AckEvery: c.AckEvery,
		})
	}
	mres := multiflow.Run(multiflow.Config{
		Flows:      flows,
		Bottleneck: c.bottleneck,
		Duration:   c.Duration,
		Seed:       c.Seed,
	})
	out := SimResult{Fairness: mres.Fairness}
	for _, fr := range mres.Flows {
		out.FlowResults = append(out.FlowResults, fr)
		out.Flows = append(out.Flows, Analyze(fr.Result.Trace))
	}
	if len(mres.Flows) > 0 {
		out.Result = mres.Flows[0].Result
	}
	return out
}

// Analyze runs the paper's trace-analysis programs over a sender-side
// trace: loss indications are inferred from wire-level records exactly as
// the paper's programs had to do from tcpdump output, then summarized
// Table II-style. The returned Summary embeds the classified loss events,
// so one call serves both the table row and event-level consumers:
//
//	sum := pftk.Analyze(res.Trace)                         // standard Reno (3 dupacks)
//	sum  = pftk.Analyze(res.Trace, pftk.WithDupThreshold(2)) // Linux-style senders
//	ivs := pftk.Intervals(res.Trace, sum.Events, 100)
func Analyze(tr Trace, opts ...AnalyzeOption) Summary {
	var c analyzeConfig
	for _, o := range opts {
		o(&c)
	}
	var events []LossEvent
	if c.groundTruth {
		events = analysis.GroundTruthLossEvents(tr)
	} else {
		events = analysis.InferLossEvents(tr, c.dupThreshold)
	}
	return analysis.Summarize(tr, events)
}

// Intervals splits a trace into width-second intervals with per-interval
// loss statistics, as in the paper's Fig. 7 methodology.
func Intervals(tr Trace, events []LossEvent, width float64) []Interval {
	return analysis.Intervals(tr, events, width)
}

// RTTWindowCorrelation returns the Section IV correlation between round
// duration and packets in flight for a simulated trace (near 0 on
// wide-area paths, near 1 behind a modem-style deep buffer).
func RTTWindowCorrelation(tr Trace) float64 { return analysis.RoundCorrelation(tr) }

// ShortFlowTime returns the expected completion time (seconds) of an
// n-packet transfer under loss rate p — the short-connection extension the
// paper lists as future work (Cardwell et al. developed it into a full
// model in 2000): slow start, the expected first-loss cost, then steady
// state at B(p).
func ShortFlowTime(n int, p float64, pr Params) float64 {
	return core.ShortFlowTime(n, p, pr)
}

// ShortFlowRate returns n / ShortFlowTime — the effective rate of a short
// transfer, which approaches SendRate only for large n.
func ShortFlowRate(n int, p float64, pr Params) float64 {
	return core.ShortFlowRate(n, p, pr)
}
