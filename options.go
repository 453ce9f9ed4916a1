package pftk

import (
	"pftk/internal/netem"
	"pftk/internal/obs"
	"pftk/internal/sim"
)

// Registry is an observability metric registry (counters, gauges,
// histograms); attach one to a run with WithObs and read it back with
// its Snapshot method. It aliases the internal type so callers outside
// the module can construct and consume one.
type Registry = obs.Registry

// NewRegistry returns an empty metric registry for WithObs.
func NewRegistry() *Registry { return obs.New() }

// LinkStats are one link direction's packet counters (offered,
// delivered, drops by cause, queue high-water mark).
type LinkStats = netem.LinkStats

// PathStats snapshots both directions of the emulated path after a run:
// Forward carries data packets, Reverse carries ACKs. Populated via
// WithLinkStats; the counters are the ground truth that packet-
// conservation checks reconcile against the sender's counters and trace,
// and the source of the netem.* metrics WithObs records.
type PathStats struct {
	Forward LinkStats
	Reverse LinkStats
}

// FlightRecorder is the engine's black box: a fixed ring of the most
// recent schedule/fire/cancel/drop operations, dumpable after a panic
// or invariant failure. It aliases the internal type so callers outside
// the module can construct and read one.
type FlightRecorder = sim.FlightRecorder

// NewFlightRecorder returns a flight recorder retaining the last k
// engine operations (k <= 0 selects the default capacity). Attach it to
// a run with WithFlightRecorder.
func NewFlightRecorder(k int) *FlightRecorder { return sim.NewFlightRecorder(k) }

// SimOption configures one simulated transfer; pass options to Sim. The
// zero configuration is a 100-second saturated Reno transfer over a
// lossless 0.1 s-RTT path.
type SimOption func(*SimConfig)

// WithPath sets the path's two-way propagation delay (RTT) in seconds.
func WithPath(rtt float64) SimOption {
	return func(c *SimConfig) { c.RTT = rtt }
}

// WithLoss sets a Bernoulli (i.i.d.) packet loss probability on the data
// direction.
func WithLoss(rate float64) SimOption {
	return func(c *SimConfig) { c.LossRate = rate; c.BurstDur = 0 }
}

// WithBurstLoss sets a timed-outage loss process: each data packet starts
// a dur-second outage with probability rate, correlating losses the way
// the paper's bursty paths did.
func WithBurstLoss(rate, dur float64) SimOption {
	return func(c *SimConfig) { c.LossRate = rate; c.BurstDur = dur }
}

// WithScenario schedules time-varying path conditions and fault
// injection over the run: phases and faults fire at their scheduled
// simulated times on the engine's event queue, byte-reproducibly for a
// fixed seed. The scenario's base state is the path configured by the
// other options.
func WithScenario(sc *Scenario) SimOption {
	return func(c *SimConfig) { c.Scenario = sc }
}

// WithSeed fixes the run's random streams, making it reproducible.
func WithSeed(seed uint64) SimOption {
	return func(c *SimConfig) { c.Seed = seed }
}

// WithDuration sets the transfer length in simulated seconds.
func WithDuration(seconds float64) SimOption {
	return func(c *SimConfig) { c.Duration = seconds }
}

// WithOS selects the sender's TCP flavor by the paper's Table I naming:
// "reno" (default), "tahoe", "linux", "irix" or "newreno". Sim panics on
// any other name.
func WithOS(variant string) SimOption {
	return func(c *SimConfig) { c.Variant = variant }
}

// WithWindow sets the receiver's advertised window Wm in packets
// (default 64).
func WithWindow(wm int) SimOption {
	return func(c *SimConfig) { c.Wm = wm }
}

// WithMinRTO floors the retransmission timeout in seconds, shaping the
// trace's T0 (default 1 s).
func WithMinRTO(seconds float64) SimOption {
	return func(c *SimConfig) { c.MinRTO = seconds }
}

// WithDelayedACKs sets the receiver's ACK ratio b (default 2, the
// paper's delayed-ACK assumption; 1 = ACK every packet).
func WithDelayedACKs(b int) SimOption {
	return func(c *SimConfig) { c.AckEvery = b }
}

// WithPhaseStats directs the per-phase attribution of a scenario run
// (packets offered/dropped/delivered per scenario segment) into dst
// after the run completes. Without a scenario, dst is left untouched.
func WithPhaseStats(dst *[]PhaseStat) SimOption {
	return func(c *SimConfig) { c.phaseStats = dst }
}

// WithFlightRecorder attaches a flight recorder to the run's engine:
// the last schedule/fire/cancel/drop operations are retained in f's
// fixed ring for a post-mortem dump if the run panics or trips an
// invariant. Recording writes into preallocated ring slots, so the
// engine hot path stays allocation-free.
func WithFlightRecorder(f *FlightRecorder) SimOption {
	return func(c *SimConfig) { c.flight = f }
}

// WithObs collects the run's metrics on reg: the engine (events, queue
// depth, cancels), both link directions (netem.fwd.* / netem.rev.*
// offered/delivered/drop counters), the sender (cwnd/RTT histograms,
// loss-indication counters) and, when a scenario is bound, the scenario
// runner (transitions, fault windows, per-phase attribution). Values
// with a counterpart in the engine, link or sender counters or the
// trace are written from it when the run ends, not counted during the
// run; only the cwnd histogram, the sender's timer cancels and the
// scenario runner's metrics are updated live. Observation never
// perturbs the simulation, so a run with and without a registry
// produces byte-identical traces. A nil registry disables collection.
func WithObs(reg *Registry) SimOption {
	return func(c *SimConfig) { c.registry = reg }
}

// WithLinkStats directs both directions' final link counters into dst
// after the run completes — the packet-conservation ground truth
// (offered = delivered + drops + still-in-flight) that invariant
// checkers reconcile against the sender's counters and trace.
func WithLinkStats(dst *PathStats) SimOption {
	return func(c *SimConfig) { c.linkStats = dst }
}

// WithFlows runs the given flows concurrently on one simulation engine
// instead of a single saturated transfer. With WithBottleneck they
// share one link; otherwise each flow runs over its own private path.
// The result's Flows, FlowResults and Fairness fields carry the
// per-flow and aggregate outcomes:
//
//	res := pftk.Sim(
//		pftk.WithFlows(
//			pftk.Flow{Variant: "reno", RTT: 0.08},
//			pftk.Flow{Variant: "tfrc", RTT: 0.08},
//		),
//		pftk.WithBottleneck(pftk.Bottleneck{Rate: 60, QueueCap: 20, OneWay: 0.04}),
//		pftk.WithDuration(500),
//	)
//	fmt.Println(res.Fairness.Jain)
//
// Scenario, observability and flight-recorder options apply only to
// single-flow runs and are ignored in multi-flow mode.
func WithFlows(flows ...Flow) SimOption {
	return func(c *SimConfig) { c.flows = flows }
}

// WithFlowCount replicates the single-flow knobs (WithPath, WithLoss,
// WithOS, WithWindow, ...) into n identical flows — the symmetric
// population of the fairness experiments. Ignored when WithFlows
// supplies explicit specs. Per-flow random streams are forked from the
// run seed by flow index.
func WithFlowCount(n int) SimOption {
	return func(c *SimConfig) { c.flowCount = n }
}

// WithBottleneck routes every flow of a multi-flow run through one
// shared link, making the flows compete: congestive loss comes from the
// common queue rather than each flow's private loss process. A
// non-positive Rate (the zero value) keeps the flows on disjoint paths.
func WithBottleneck(b Bottleneck) SimOption {
	return func(c *SimConfig) { c.bottleneck = b }
}

// WithTransfer makes the run a finite n-packet transfer: the simulation
// stops when the last packet is delivered or at deadline, whichever
// comes first, and the result's TransferTime / TransferComplete fields
// report the outcome — the short-flow counterpart of the default
// saturated run.
func WithTransfer(n int, deadline float64) SimOption {
	return func(c *SimConfig) {
		c.totalPackets = uint64(n)
		c.transferDeadline = deadline
	}
}

// analyzeConfig collects Analyze's options.
type analyzeConfig struct {
	dupThreshold int
	groundTruth  bool
}

// AnalyzeOption configures Analyze.
type AnalyzeOption func(*analyzeConfig)

// WithDupThreshold sets the sender's fast-retransmit duplicate-ACK
// threshold used when inferring loss events: 3 for standard Reno (the
// default), 2 for the Linux stacks of the paper's Section III.
func WithDupThreshold(n int) AnalyzeOption {
	return func(c *analyzeConfig) { c.dupThreshold = n }
}

// WithGroundTruth analyzes the simulator's explicit loss-indication
// records instead of inferring events from wire-level records — the
// oracle unavailable to the paper's authors but available to a
// simulation.
func WithGroundTruth() AnalyzeOption {
	return func(c *analyzeConfig) { c.groundTruth = true }
}
