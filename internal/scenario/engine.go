package scenario

import (
	"fmt"

	"pftk/internal/netem"
	"pftk/internal/obs"
	"pftk/internal/sim"
)

// Base describes the path's steady state at t = 0, before any phase
// applies: the configuration the scenario's deltas are relative to and
// the state faults restore when their window closes.
type Base struct {
	// RTT is the two-way propagation delay in seconds, split evenly
	// across the two directions.
	RTT float64
	// Loss is the initial data-direction loss process (nil = lossless).
	Loss netem.LossModel
	// Rate is the initial bottleneck rate in packets/s (0 = infinite).
	Rate float64
	// QueueCap is the initial drop-tail capacity in packets.
	QueueCap int
}

// Config parameterizes Bind.
type Config struct {
	// Scenario is the schedule to execute; nil or empty binds nothing
	// beyond the base state.
	Scenario *Scenario
	// RNG seeds every stream the runner forks (fault decisions, phase
	// loss processes). Required.
	RNG *sim.RNG
	// Base is the t = 0 path state.
	Base Base
	// Horizon bounds the expansion of unbounded periodic faults
	// (occurrences at or past Horizon are not scheduled). Use the run's
	// planned duration.
	Horizon float64
	// Registry receives scenario.* metrics; nil disables them.
	Registry *obs.Registry
}

// PhaseStat attributes data-direction link activity to one scenario
// segment: packets offered, dropped and delivered while that phase's
// parameters were the steady state.
type PhaseStat struct {
	// Phase is the index into Scenario.Phases, or -1 for the base
	// segment before the first phase applies.
	Phase int `json:"phase"`
	// Start and End bound the segment in simulated seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Offered, Dropped and Delivered count data-direction packets over
	// the segment (Dropped = loss-model plus queue drops).
	Offered   int `json:"offered"`
	Dropped   int `json:"dropped"`
	Delivered int `json:"delivered"`
}

// String implements fmt.Stringer.
func (ps PhaseStat) String() string {
	label := "base"
	if ps.Phase >= 0 {
		label = fmt.Sprintf("phase %d", ps.Phase)
	}
	return fmt.Sprintf("%s [%.0f, %.0f): offered=%d dropped=%d delivered=%d",
		label, ps.Start, ps.End, ps.Offered, ps.Dropped, ps.Delivered)
}

// overlayLoss is the effective data-direction loss process: fault
// overlays first (an active outage drops everything; active loss bursts
// add an independent drop probability), then the phase-controlled base
// process. Installing it once at Bind keeps the base process's random
// stream continuous across fault windows.
type overlayLoss struct {
	base    netem.LossModel
	outages int
	burstP  float64
	rng     *sim.RNG
}

// Drop implements netem.LossModel.
func (o *overlayLoss) Drop(now float64) bool {
	if o.outages > 0 {
		return true
	}
	if o.burstP > 0 && o.rng.Bool(o.burstP) {
		return true
	}
	if o.base != nil {
		return o.base.Drop(now)
	}
	return false
}

// adjDelay is a mutable constant-delay process: a base one-way delay
// plus the sum of active delay spikes, plus uniform jitter during
// reorder windows.
type adjDelay struct {
	oneWay float64
	extra  float64
	jitter float64
	rng    *sim.RNG
}

// Delay implements netem.DelayProcess.
func (d *adjDelay) Delay(float64) float64 {
	dl := d.oneWay + d.extra
	if d.jitter > 0 && d.rng != nil {
		dl += d.rng.Uniform(0, d.jitter)
	}
	return dl
}

// Runner executes one bound scenario. Create it with Bind; after the
// simulation completes, call Finish for the per-phase attribution.
type Runner struct {
	eng     *sim.Engine
	pc      netem.PathController
	sc      *Scenario
	rng     *sim.RNG
	horizon float64

	overlay *overlayLoss
	fwd     *adjDelay
	rev     *adjDelay

	curRate  float64
	curQueue int

	// Active fault multisets; effective values are recomputed from
	// these at every fault boundary.
	outages int
	bursts  []float64
	spikes  []float64
	jitters []float64
	dups    []float64
	dupRNG  *sim.RNG

	marks []phaseMark

	transitions  uint64
	faultsOn     uint64
	faultsOff    uint64
	activeFaults int

	reg     *obs.Registry
	gActive *obs.Gauge
	gPhase  *obs.Gauge
}

// phaseMark snapshots the data link at the moment a segment begins.
type phaseMark struct {
	phase int
	start float64
	stats netem.LinkStats
}

// Bind installs the scenario on a path and schedules every transition on
// the engine's event queue. It must be called before the simulation
// starts (transitions scheduled at Bind time sort ahead of same-time
// packet events, so a phase boundary always applies before the packets
// of that instant). The path's delay processes are replaced with
// scenario-controlled constant delays derived from Base.RTT.
//
// Bind panics if the scenario fails Validate — callers parse or construct
// scenarios ahead of simulation time, where errors are reportable.
func Bind(eng *sim.Engine, pc netem.PathController, cfg Config) *Runner {
	if eng == nil || pc == nil {
		panic("scenario: Bind needs an engine and a path controller")
	}
	if cfg.RNG == nil {
		panic("scenario: Bind needs an RNG")
	}
	if err := cfg.Scenario.Validate(); err != nil {
		panic(fmt.Sprintf("scenario: Bind on invalid scenario: %v", err))
	}
	reg := cfg.Registry
	r := &Runner{
		eng:      eng,
		pc:       pc,
		sc:       cfg.Scenario,
		rng:      cfg.RNG,
		horizon:  cfg.Horizon,
		curRate:  cfg.Base.Rate,
		curQueue: cfg.Base.QueueCap,
		dupRNG:   cfg.RNG.Fork("fault.duplicate"),

		reg:     reg,
		gActive: reg.Gauge("scenario.faults.active"),
		gPhase:  reg.Gauge("scenario.phase"),
	}
	r.overlay = &overlayLoss{base: cfg.Base.Loss, rng: cfg.RNG.Fork("fault.loss")}
	r.fwd = &adjDelay{oneWay: cfg.Base.RTT / 2, rng: cfg.RNG.Fork("fault.jitter")}
	r.rev = &adjDelay{oneWay: cfg.Base.RTT / 2}
	pc.SetLoss(r.overlay)
	pc.SetOneWayDelay(r.fwd, r.rev)
	pc.SetBottleneck(r.curRate, r.curQueue)
	r.mark(-1)

	if r.sc == nil {
		return r
	}
	for i := range r.sc.Phases {
		r.schedulePhase(i)
	}
	for i := range r.sc.Faults {
		r.scheduleFault(i)
	}
	return r
}

// mark opens a new attribution segment for phase index p.
func (r *Runner) mark(p int) {
	r.marks = append(r.marks, phaseMark{phase: p, start: r.eng.Now(), stats: r.pc.DataStats()})
}

// schedulePhase queues the application of phase i. The phase's loss
// process is forked from a label that depends only on the phase index,
// so re-runs (and any worker count) see identical streams.
func (r *Runner) schedulePhase(i int) {
	ph := r.sc.Phases[i]
	at := ph.At
	if at < r.eng.Now() {
		at = r.eng.Now()
	}
	r.eng.Schedule(at, func() { r.applyPhase(i) })
}

// applyPhase rewrites the steady-state path parameters.
func (r *Runner) applyPhase(i int) {
	ph := r.sc.Phases[i]
	if ph.Loss != nil {
		r.overlay.base = buildLoss(ph.Loss, r.rng.Fork(fmt.Sprintf("phase.%d.loss", i)))
	}
	if ph.RTT != nil {
		r.fwd.oneWay = *ph.RTT / 2
		r.rev.oneWay = *ph.RTT / 2
	}
	if ph.Rate != nil {
		r.curRate = *ph.Rate
	}
	if ph.QueueCap != nil {
		r.curQueue = *ph.QueueCap
	}
	if ph.Rate != nil || ph.QueueCap != nil {
		r.pc.SetBottleneck(r.curRate, r.curQueue)
	}
	r.transitions++
	r.gPhase.Set(float64(i + 1))
	r.mark(i)
}

// scheduleFault expands fault i into occurrences and queues each
// occurrence's start and end transitions.
func (r *Runner) scheduleFault(i int) {
	f := r.sc.Faults[i]
	n := f.Count
	if f.Period <= 0 {
		n = 1
	}
	for k := 0; n == 0 || k < n; k++ {
		if k >= MaxOccurrences {
			break
		}
		start := f.Start + float64(k)*f.Period
		if n == 0 && !(start < r.horizon) {
			break
		}
		at := start
		if at < r.eng.Now() {
			at = r.eng.Now()
		}
		r.eng.Schedule(at, func() { r.applyFault(f, true) })
		r.eng.Schedule(at+f.Dur, func() { r.applyFault(f, false) })
		if f.Period <= 0 {
			break
		}
	}
}

// applyFault opens (on) or closes one fault occurrence and recomputes
// the effective overlay state.
func (r *Runner) applyFault(f Fault, on bool) {
	switch f.Kind {
	case KindOutage:
		if on {
			r.outages++
		} else {
			r.outages--
		}
	case KindLossBurst:
		r.bursts = toggle(r.bursts, f.LossRate, on)
	case KindDelaySpike:
		r.spikes = toggle(r.spikes, f.ExtraDelay, on)
	case KindReorder:
		r.jitters = toggle(r.jitters, f.Jitter, on)
	case KindDuplicate:
		r.dups = toggle(r.dups, f.Prob, on)
	}
	if on {
		r.activeFaults++
		r.faultsOn++
	} else {
		r.activeFaults--
		r.faultsOff++
	}
	r.gActive.Set(float64(r.activeFaults))

	// Recompute the effective overlays from the active multisets.
	r.overlay.outages = r.outages
	r.overlay.burstP = combinedProb(r.bursts)
	r.fwd.extra = sum(r.spikes)
	r.fwd.jitter = maxOf(r.jitters)
	r.pc.SetReorder(len(r.jitters) > 0)
	r.pc.SetDuplicate(maxOf(r.dups), r.dupRNG)
}

// toggle adds (on) or removes one instance of v from the multiset.
func toggle(set []float64, v float64, on bool) []float64 {
	if on {
		return append(set, v)
	}
	for i := range set {
		//pftklint:ignore floatcmp removing the bit-identical value inserted at fault start
		if set[i] == v {
			return append(set[:i], set[i+1:]...)
		}
	}
	return set
}

// combinedProb folds independent extra-loss probabilities:
// 1 - Π(1 - p_i).
func combinedProb(ps []float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	keep := 1.0
	for _, p := range ps {
		keep *= 1 - p
	}
	return 1 - keep
}

// sum returns Σ vs.
func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

// maxOf returns the largest element, or 0 for an empty set.
func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// buildLoss instantiates a loss process from its declarative spec.
func buildLoss(ls *LossSpec, rng *sim.RNG) netem.LossModel {
	if ls == nil || ls.Rate <= 0 {
		return nil
	}
	switch ls.Model {
	case "", LossBernoulli:
		return netem.NewBernoulli(ls.Rate, rng)
	case LossGE:
		burst := ls.BurstLen
		if burst < 1 {
			burst = 1
		}
		return netem.GilbertElliottForLossRate(ls.Rate, burst, rng)
	case LossOutage:
		return netem.NewTimedBurst(ls.Rate, ls.BurstDur, rng)
	default:
		// Validate rejects unknown models before Bind.
		panic(fmt.Sprintf("scenario: unknown loss model %q", ls.Model))
	}
}

// Transitions returns the number of phase transitions applied so far.
func (r *Runner) Transitions() uint64 { return r.transitions }

// FaultsStarted returns the number of fault occurrences opened so far.
func (r *Runner) FaultsStarted() uint64 { return r.faultsOn }

// ActiveFaults returns the number of currently open fault occurrences.
func (r *Runner) ActiveFaults() int { return r.activeFaults }

// RecordMetrics writes the transition and fault counts to the registry
// Bind was given, as scenario.transitions, scenario.faults.started and
// scenario.faults.ended; without a registry it does nothing. The counts
// are kept once, in the runner: call it once, after the simulation has
// run.
func (r *Runner) RecordMetrics() {
	r.reg.Counter("scenario.transitions").Add(r.transitions)
	r.reg.Counter("scenario.faults.started").Add(r.faultsOn)
	r.reg.Counter("scenario.faults.ended").Add(r.faultsOff)
}

// Finish closes the last attribution segment at the engine's current
// time and returns the per-phase statistics. When a registry was
// configured, it also exports scenario.phase.<n>.offered/dropped
// counters so campaigns can attribute loss indications to phases. Call
// it once, after the simulation has run.
func (r *Runner) Finish() []PhaseStat {
	now := r.eng.Now()
	final := r.pc.DataStats()
	out := make([]PhaseStat, 0, len(r.marks))
	for i, m := range r.marks {
		end := now
		next := final
		if i+1 < len(r.marks) {
			end = r.marks[i+1].start
			next = r.marks[i+1].stats
		}
		out = append(out, PhaseStat{
			Phase:     m.phase,
			Start:     m.start,
			End:       end,
			Offered:   next.Offered - m.stats.Offered,
			Dropped:   (next.RandomDrops + next.QueueDrops) - (m.stats.RandomDrops + m.stats.QueueDrops),
			Delivered: next.Delivered - m.stats.Delivered,
		})
	}
	if r.reg != nil {
		for _, ps := range out {
			label := "base"
			if ps.Phase >= 0 {
				label = fmt.Sprintf("%d", ps.Phase)
			}
			r.reg.Counter(fmt.Sprintf("scenario.phase.%s.offered", label)).Add(uint64(ps.Offered))
			r.reg.Counter(fmt.Sprintf("scenario.phase.%s.dropped", label)).Add(uint64(ps.Dropped))
		}
	}
	return out
}
