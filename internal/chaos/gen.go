package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"pftk/internal/reno"
	"pftk/internal/scenario"
	"pftk/internal/sim"
)

// Case is one fully-specified simulation drawn from a Spec: the
// fixed-path parameters plus an optional scenario program. Its fields
// mirror the serving daemon's simulate request one-for-one, so a case
// can be fed to a live pftkd byte-identically to how the local runner
// executes it.
type Case struct {
	// Index is the case's position in its campaign; together with the
	// campaign (spec, seed) it names the case uniquely.
	Index int `json:"index"`
	// Seed drives the simulation's random streams.
	Seed uint64 `json:"seed"`
	// RTT is the two-way propagation delay, seconds.
	RTT float64 `json:"rtt"`
	// LossRate is the base loss process's headline rate (bernoulli drop
	// probability or timedburst outage-start probability; 0 when the
	// base process lives in a phase-zero scenario rewrite instead).
	LossRate float64 `json:"loss_rate"`
	// BurstDur is the timedburst outage duration, seconds (0 selects
	// bernoulli).
	BurstDur float64 `json:"burst_dur,omitempty"`
	// Wm is the receiver's advertised window, packets.
	Wm int `json:"wm"`
	// MinRTO floors the retransmission timeout, seconds.
	MinRTO float64 `json:"min_rto"`
	// Duration is the transfer length, simulated seconds.
	Duration float64 `json:"duration"`
	// Variant is the sender flavor.
	Variant string `json:"variant"`
	// AckEvery is the delayed-ACK ratio b.
	AckEvery int `json:"ack_every"`
	// Scenario optionally schedules phases and fault trains; its
	// declared Duration always equals the case Duration, so the
	// scenario codec's past-the-end validation guards every generated
	// program.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
	// Flows, when 2 or more, runs that many symmetric flows through one
	// shared bottleneck instead of the single-flow pipeline. Multi-flow
	// cases carry no scenario and are checked against the per-flow
	// invariant set.
	Flows int `json:"flows,omitempty"`
	// FlowRate is the shared bottleneck's total rate, pkts/s
	// (multi-flow cases only).
	FlowRate float64 `json:"flow_rate,omitempty"`
	// FlowQueue is the shared bottleneck's total queue capacity,
	// packets (multi-flow cases only).
	FlowQueue int `json:"flow_queue,omitempty"`
}

// Hash returns a canonical content hash of the case.
func (c Case) Hash() string {
	data, err := json.Marshal(c)
	if err != nil {
		// Case is a plain struct of numbers and strings; failure to
		// encode is a programming error.
		panic(fmt.Sprintf("chaos: case hash: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Validate reports the first problem with the case, or nil. Generated
// cases always pass; the check guards corpus entries and hand-written
// repros.
func (c Case) Validate() error {
	_, knownVariant := reno.VariantByName(c.Variant)
	switch {
	case !(c.RTT > 0) || math.IsInf(c.RTT, 0):
		return fmt.Errorf("chaos: case %d: rtt must be positive and finite, got %v", c.Index, c.RTT)
	case math.IsNaN(c.LossRate) || c.LossRate < 0 || c.LossRate > 1:
		return fmt.Errorf("chaos: case %d: loss_rate must be in [0, 1], got %v", c.Index, c.LossRate)
	case math.IsNaN(c.BurstDur) || c.BurstDur < 0:
		return fmt.Errorf("chaos: case %d: burst_dur must be non-negative, got %v", c.Index, c.BurstDur)
	case c.Wm < 1:
		return fmt.Errorf("chaos: case %d: wm must be at least 1, got %d", c.Index, c.Wm)
	case !(c.MinRTO > 0):
		return fmt.Errorf("chaos: case %d: min_rto must be positive, got %v", c.Index, c.MinRTO)
	case !(c.Duration > 0) || math.IsInf(c.Duration, 0):
		return fmt.Errorf("chaos: case %d: duration must be positive and finite, got %v", c.Index, c.Duration)
	case !knownVariant:
		return fmt.Errorf("chaos: case %d: unknown variant %q", c.Index, c.Variant)
	case c.AckEvery < 1:
		return fmt.Errorf("chaos: case %d: ack_every must be at least 1, got %d", c.Index, c.AckEvery)
	}
	if c.Flows >= 2 {
		switch {
		case !(c.FlowRate > 0) || math.IsInf(c.FlowRate, 0):
			return fmt.Errorf("chaos: case %d: flow_rate must be positive and finite, got %v", c.Index, c.FlowRate)
		case c.FlowQueue < 1:
			return fmt.Errorf("chaos: case %d: flow_queue must be at least 1, got %d", c.Index, c.FlowQueue)
		case c.Scenario != nil:
			return fmt.Errorf("chaos: case %d: multi-flow cases cannot carry a scenario", c.Index)
		}
	}
	if err := c.Scenario.Validate(); err != nil {
		return fmt.Errorf("chaos: case %d: %w", c.Index, err)
	}
	if c.Scenario != nil && c.Scenario.Duration > 0 && c.Scenario.Duration > c.Duration {
		return fmt.Errorf("chaos: case %d: scenario duration %v exceeds case duration %v",
			c.Index, c.Scenario.Duration, c.Duration)
	}
	return nil
}

// caseRNG returns case i's private generator: a fresh campaign-seeded
// generator forked with the case label, so case i's stream is the same
// whether it is generated alone, in order, or from a shrinking loop —
// order independence is what makes single-case replay exact.
func caseRNG(seed uint64, i int) *sim.RNG {
	return sim.NewRNG(seed).Fork(fmt.Sprintf("case.%d", i))
}

// logUniform samples log-uniformly over [r.Min, r.Max]; a degenerate or
// zero-bounded range falls back to uniform sampling.
func logUniform(rng *sim.RNG, r Range) float64 {
	if r.Min <= 0 || r.Max <= r.Min {
		return rng.Uniform(r.Min, r.Max)
	}
	return math.Exp(rng.Uniform(math.Log(r.Min), math.Log(r.Max)))
}

// intIn samples uniformly over the closed integer range.
func intIn(rng *sim.RNG, r IntRange) int {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.Intn(r.Max-r.Min+1)
}

// pick samples uniformly from a non-empty slice.
func pick[T any](rng *sim.RNG, set []T) T {
	return set[rng.Intn(len(set))]
}

// Generate samples case i of the campaign (spec, seed). It is a pure
// function of its arguments — labeled RNG forks per component, no
// global state — and the returned case always satisfies Validate (a
// non-nil error is a generator bug surfaced to the campaign as a
// violation rather than a panic).
func Generate(sp *Spec, seed uint64, i int) (Case, error) {
	rng := caseRNG(seed, i)
	c := Case{
		Index:    i,
		Seed:     rng.Fork("seed").Uint64(),
		RTT:      rng.Fork("rtt").Uniform(sp.RTT.Min, sp.RTT.Max),
		Wm:       intIn(rng.Fork("wm"), sp.Wm),
		MinRTO:   rng.Fork("minrto").Uniform(sp.MinRTO.Min, sp.MinRTO.Max),
		Duration: rng.Fork("duration").Uniform(sp.Duration.Min, sp.Duration.Max),
		Variant:  pick(rng.Fork("variant"), sp.Variants),
		AckEvery: pick(rng.Fork("ack"), sp.AckEvery),
	}

	// Base loss process. Bernoulli and timedburst map directly onto the
	// fixed-path knobs; a ge base process has no fixed-path spelling, so
	// it becomes a phase-zero scenario rewrite.
	var phases []scenario.Phase
	lossRNG := rng.Fork("loss")
	rate := logUniform(lossRNG, sp.Loss.Rate)
	switch pick(lossRNG, sp.Loss.Models) {
	case scenario.LossGE:
		ge := &scenario.LossSpec{
			Rate:     rate,
			Model:    scenario.LossGE,
			BurstLen: lossRNG.Uniform(sp.Loss.BurstLen.Min, sp.Loss.BurstLen.Max),
		}
		phases = append(phases, scenario.Phase{At: 0, Loss: ge})
	case scenario.LossOutage:
		c.LossRate = rate
		c.BurstDur = lossRNG.Uniform(sp.Loss.BurstDur.Min, sp.Loss.BurstDur.Max)
	default: // bernoulli
		c.LossRate = rate
	}

	// Flow count: a draw of n >= 2 turns the case into n symmetric flows
	// competing for one shared bottleneck. Scenario programs rewrite a
	// single flow's private path, so multi-flow cases skip them, and a
	// ge base process (which has no fixed-path spelling) falls back to
	// bernoulli at the same rate.
	if n := intIn(rng.Fork("flows"), sp.Flows); n >= 2 {
		c.Flows = n
		c.FlowRate = float64(n) * rng.Fork("flowrate").Uniform(sp.FlowRate.Min, sp.FlowRate.Max)
		c.FlowQueue = n * intIn(rng.Fork("flowqueue"), sp.FlowQueue)
		if c.LossRate == 0 && c.BurstDur == 0 {
			c.LossRate = rate
		}
		if err := c.Validate(); err != nil {
			return c, fmt.Errorf("generated case invalid: %w", err)
		}
		return c, nil
	}

	phases = append(phases, genPhases(sp, rng.Fork("phases"), c.Duration)...)
	faults := genFaults(sp, rng.Fork("faults"), c.Duration)

	if len(phases) > 0 || len(faults) > 0 {
		c.Scenario = &scenario.Scenario{
			Name:     fmt.Sprintf("chaos-%d", i),
			Duration: c.Duration,
			Phases:   phases,
			Faults:   faults,
		}
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("generated case invalid: %w", err)
	}
	return c, nil
}

// genPhases samples the scheduled path rewrites. Phase times land in
// the middle [10%, 90%] of the run (a rewrite in the final instants
// changes nothing observable) and are sorted with duplicates dropped to
// keep the strictly-increasing invariant.
func genPhases(sp *Spec, rng *sim.RNG, duration float64) []scenario.Phase {
	n := intIn(rng, sp.Phases)
	if n == 0 {
		return nil
	}
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		times = append(times, rng.Uniform(0.1*duration, 0.9*duration))
	}
	sort.Float64s(times)
	var phases []scenario.Phase
	for _, at := range times {
		if len(phases) > 0 && !(at > phases[len(phases)-1].At) {
			continue
		}
		ph := scenario.Phase{At: at}
		// Each phase flips at least one knob; loss is likeliest since
		// loss-process churn is the paper's own non-stationarity story.
		if rng.Bool(0.6) {
			ls := &scenario.LossSpec{Rate: logUniform(rng, sp.Loss.Rate)}
			if rng.Bool(0.3) {
				ls.Model = scenario.LossGE
				ls.BurstLen = rng.Uniform(sp.Loss.BurstLen.Min, sp.Loss.BurstLen.Max)
			}
			ph.Loss = ls
		}
		if rng.Bool(0.4) {
			rtt := rng.Uniform(sp.RTT.Min, sp.RTT.Max)
			ph.RTT = &rtt
		}
		if rng.Bool(0.25) {
			r := rng.Uniform(sp.PhaseRate.Min, sp.PhaseRate.Max)
			ph.Rate = &r
			q := intIn(rng, sp.PhaseQueue)
			ph.QueueCap = &q
		}
		if ph.Loss == nil && ph.RTT == nil && ph.Rate == nil {
			rtt := rng.Uniform(sp.RTT.Min, sp.RTT.Max)
			ph.RTT = &rtt
		}
		phases = append(phases, ph)
	}
	return phases
}

// genFaults samples the fault trains. Every occurrence — first and, for
// bounded periodic trains, last — fits inside the run, so generated
// programs always pass the codec's past-the-end validation.
func genFaults(sp *Spec, rng *sim.RNG, duration float64) []scenario.Fault {
	n := intIn(rng, sp.Faults)
	if n == 0 || len(sp.FaultKinds) == 0 {
		return nil
	}
	var faults []scenario.Fault
	for i := 0; i < n; i++ {
		f := scenario.Fault{Kind: pick(rng, sp.FaultKinds)}
		maxDur := math.Min(sp.FaultDur.Max, duration/2)
		f.Dur = rng.Uniform(sp.FaultDur.Min, maxDur)
		f.Start = rng.Uniform(0, duration-f.Dur)
		switch f.Kind {
		case scenario.KindLossBurst:
			f.LossRate = rng.Uniform(sp.LossBurstRate.Min, sp.LossBurstRate.Max)
		case scenario.KindDelaySpike:
			f.ExtraDelay = rng.Uniform(sp.ExtraDelay.Min, sp.ExtraDelay.Max)
		case scenario.KindReorder:
			f.Jitter = rng.Uniform(sp.Jitter.Min, sp.Jitter.Max)
		case scenario.KindDuplicate:
			f.Prob = rng.Uniform(sp.DupProb.Min, sp.DupProb.Max)
		}
		if rng.Bool(sp.FaultPeriodicProb) {
			// A bounded train: period at least the duration (no
			// overlap), count capped so the last occurrence still ends
			// inside the run.
			period := rng.Uniform(f.Dur, math.Max(2*f.Dur, duration/4))
			maxCount := 1 + int((duration-f.Dur-f.Start)/period)
			if maxCount >= 2 {
				f.Period = period
				f.Count = 2 + rng.Intn(maxCount-1)
				if f.Count > maxCount {
					f.Count = maxCount
				}
			}
		}
		faults = append(faults, f)
	}
	return faults
}
