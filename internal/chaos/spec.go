// Package chaos is the randomized scenario-soak harness: it samples
// valid simulation cases — fixed-path parameters plus declarative
// scenario programs (phases and fault trains) — from a distribution
// Spec, executes them in bulk across a worker pool, and checks a set of
// global invariants on every run: packet conservation per link
// direction, the forward link's offered count equal to the sender's
// transmissions, trace analysis reproducing the sender's counters,
// per-phase attribution telescoping to the run totals, the PFTK model's
// prediction staying inside a configurable envelope of the measured rate
// on stationary cases, and byte-exact replay of every case from its
// seed. Each invariant compares two different records of the run; a
// metric registry is not one of them, since its values are read from
// those records when the run ends.
//
// Everything is a pure function of (Spec, Seed): case i is generated
// from an RNG forked with the label "case.<i>" off a fresh
// generator seeded with the campaign seed, so any single case — and the
// whole campaign report — is reproducible on any machine at any worker
// count. When a case fails an invariant, the Shrink pass greedily
// minimizes it (dropping faults and phases, halving magnitudes) while
// preserving the failing invariant, and the minimal repro is written to
// a corpus directory in a stable JSON format that `go test` replays.
package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"pftk/internal/reno"
	"pftk/internal/scenario"
)

// Range is a closed interval of float64 values to sample from. Min ==
// Max pins the value.
type Range struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// validate reports the first problem with the range under the given
// knob name; lo bounds Min from below and hi bounds Max from above.
func (r Range) validate(name string, lo, hi float64) error {
	switch {
	case math.IsNaN(r.Min) || math.IsNaN(r.Max) || math.IsInf(r.Min, 0) || math.IsInf(r.Max, 0):
		return fmt.Errorf("chaos: %s range must be finite, got [%v, %v]", name, r.Min, r.Max)
	case r.Min < lo:
		return fmt.Errorf("chaos: %s range minimum %v below %v", name, r.Min, lo)
	case r.Max < r.Min:
		return fmt.Errorf("chaos: %s range [%v, %v] is inverted", name, r.Min, r.Max)
	case r.Max > hi:
		return fmt.Errorf("chaos: %s range maximum %v above %v", name, r.Max, hi)
	}
	return nil
}

// IntRange is a closed interval of integers to sample from.
type IntRange struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

// validate reports the first problem with the range under the given
// knob name; lo bounds Min from below and hi bounds Max from above.
func (r IntRange) validate(name string, lo, hi int) error {
	switch {
	case r.Min < lo:
		return fmt.Errorf("chaos: %s range minimum %d below %d", name, r.Min, lo)
	case r.Max < r.Min:
		return fmt.Errorf("chaos: %s range [%d, %d] is inverted", name, r.Min, r.Max)
	case r.Max > hi:
		return fmt.Errorf("chaos: %s range maximum %d above %d", name, r.Max, hi)
	}
	return nil
}

// LossDist describes the distribution of the base (phase-zero) loss
// process: which model families to draw from and the parameter ranges.
type LossDist struct {
	// Models is the non-empty set of loss families to sample uniformly:
	// bernoulli, ge and/or timedburst (scenario package names).
	Models []string `json:"models"`
	// Rate is the headline loss-rate range, sampled log-uniformly so
	// campaigns cover the paper's two decades of p evenly.
	Rate Range `json:"rate"`
	// BurstLen is the ge model's mean burst length range, in packets.
	BurstLen Range `json:"burst_len"`
	// BurstDur is the timedburst model's outage-duration range, seconds.
	BurstDur Range `json:"burst_dur"`
}

// Envelope configures the model-vs-measured invariant: on stationary
// (scenario-free) cases with enough loss signal, the full PFTK model
// evaluated at the measured (p, RTT, T0) must predict the measured send
// rate within a multiplicative factor.
type Envelope struct {
	// ModelErrorFactor is the largest tolerated max(pred/meas,
	// meas/pred). Zero disables the check.
	ModelErrorFactor float64 `json:"model_error_factor"`
	// MinLossIndications gates the check: below this many ground-truth
	// loss indications the measured p is noise, not signal.
	MinLossIndications int `json:"min_loss_indications"`
}

// Spec is the declarative distribution a campaign samples cases from.
// It has a strict JSON codec (Parse/Encode) and a canonical Hash, so a
// campaign is replayable — and a report attributable — from
// (spec, seed) alone.
type Spec struct {
	// Name labels the spec in reports.
	Name string `json:"name,omitempty"`

	// RTT is the two-way propagation delay range, seconds.
	RTT Range `json:"rtt"`
	// Duration is the simulated transfer length range, seconds.
	Duration Range `json:"duration"`
	// Wm is the receiver advertised-window range, packets.
	Wm IntRange `json:"wm"`
	// MinRTO is the retransmission-timeout floor range, seconds.
	MinRTO Range `json:"min_rto"`
	// AckEvery is the non-empty set of delayed-ACK ratios to sample.
	AckEvery []int `json:"ack_every"`
	// Variants is the non-empty set of sender flavors to sample.
	Variants []string `json:"variants"`
	// Loss is the base loss-process distribution.
	Loss LossDist `json:"loss"`

	// Phases is the range of scheduled path-rewrite counts per case.
	Phases IntRange `json:"phases"`
	// PhaseRate is the bottleneck-rate range (pkts/s) a phase may set.
	PhaseRate Range `json:"phase_rate"`
	// PhaseQueue is the drop-tail queue-capacity range a phase may set.
	PhaseQueue IntRange `json:"phase_queue"`

	// Faults is the range of fault-train counts per case.
	Faults IntRange `json:"faults"`
	// FaultKinds is the non-empty set of fault kinds to sample.
	FaultKinds []string `json:"fault_kinds"`
	// FaultDur is the per-occurrence fault duration range, seconds.
	FaultDur Range `json:"fault_dur"`
	// FaultPeriodicProb is the probability a fault becomes a bounded
	// periodic train instead of a one-shot window.
	FaultPeriodicProb float64 `json:"fault_periodic_prob"`
	// LossBurstRate is the extra drop probability range of loss_burst
	// windows.
	LossBurstRate Range `json:"loss_burst_rate"`
	// ExtraDelay is the added one-way delay range of delay_spike
	// windows, seconds.
	ExtraDelay Range `json:"extra_delay"`
	// Jitter is the reorder window's uniform delay-bound range, seconds.
	Jitter Range `json:"jitter"`
	// DupProb is the duplicate window's per-packet probability range.
	DupProb Range `json:"dup_prob"`

	// Flows is the range of concurrent-flow counts per case. Counts of
	// 0 or 1 run the classic single-flow pipeline; a draw of n >= 2
	// runs n symmetric flows through one shared bottleneck instead
	// (scenario programs are single-flow machinery and are skipped on
	// multi-flow cases).
	Flows IntRange `json:"flows"`
	// FlowRate is the shared bottleneck's per-flow rate range, pkts/s;
	// a case's total bottleneck rate is the draw times its flow count.
	FlowRate Range `json:"flow_rate"`
	// FlowQueue is the bottleneck's per-flow queue-capacity range,
	// packets (total capacity scales with the flow count likewise).
	FlowQueue IntRange `json:"flow_queue"`

	// Envelope configures the model-vs-measured invariant.
	Envelope Envelope `json:"envelope"`
}

// DefaultSpec is the distribution behind `make chaos-smoke`: short
// transfers (a few seconds to ~20 s keeps 500 runs inside a CI time
// box) over the paper's loss-rate decades, with up to a handful of
// phases and fault trains layered per case.
func DefaultSpec() Spec {
	return Spec{
		Name:     "default",
		RTT:      Range{0.02, 0.4},
		Duration: Range{4, 20},
		Wm:       IntRange{8, 64},
		MinRTO:   Range{0.5, 1.5},
		AckEvery: []int{1, 2},
		Variants: []string{"reno", "tahoe", "linux", "irix", "newreno"},
		Loss: LossDist{
			Models:   []string{scenario.LossBernoulli, scenario.LossGE, scenario.LossOutage},
			Rate:     Range{0.003, 0.15},
			BurstLen: Range{1, 4},
			BurstDur: Range{0.05, 0.5},
		},
		Phases:            IntRange{0, 3},
		PhaseRate:         Range{50, 2000},
		PhaseQueue:        IntRange{4, 64},
		Faults:            IntRange{0, 3},
		FaultKinds:        []string{scenario.KindOutage, scenario.KindLossBurst, scenario.KindDelaySpike, scenario.KindReorder, scenario.KindDuplicate},
		FaultDur:          Range{0.1, 2},
		FaultPeriodicProb: 0.3,
		LossBurstRate:     Range{0.05, 0.5},
		ExtraDelay:        Range{0.05, 0.5},
		Jitter:            Range{0.01, 0.2},
		DupProb:           Range{0.01, 0.3},
		Flows:             IntRange{1, 4},
		FlowRate:          Range{15, 60},
		FlowQueue:         IntRange{3, 8},
		Envelope:          Envelope{ModelErrorFactor: defaultModelErrorFactor, MinLossIndications: 20},
	}
}

// validLossModels is the closed set of base loss families.
var validLossModels = map[string]bool{
	scenario.LossBernoulli: true,
	scenario.LossGE:        true,
	scenario.LossOutage:    true,
}

// validFaultKinds is the closed set of sampleable fault kinds.
var validFaultKinds = map[string]bool{
	scenario.KindOutage:     true,
	scenario.KindLossBurst:  true,
	scenario.KindDelaySpike: true,
	scenario.KindReorder:    true,
	scenario.KindDuplicate:  true,
}

// specHeadroom sets the upper bounds Validate puts on every count
// range (wm, phases, phase_queue, faults, flows, flow_queue), on
// duration and on flow_rate: each maximum may be at most specHeadroom
// times DefaultSpec's (wm 1024, phases 48, duration 320 s, flows 64,
// ...). A spec can scale the smoke campaign's cases sixteenfold; beyond
// that a case is no longer cheap to run by the hundred, and an unbounded
// count overflows the sampler.
const specHeadroom = 16

// Validate reports the first problem with the spec, or nil.
func (sp *Spec) Validate() error {
	if sp == nil {
		return errors.New("chaos: nil spec")
	}
	def := DefaultSpec()
	unbounded := math.MaxFloat64
	if err := sp.RTT.validate("rtt", 1e-4, unbounded); err != nil {
		return err
	}
	if err := sp.Duration.validate("duration", 0.5, specHeadroom*def.Duration.Max); err != nil {
		return err
	}
	if err := sp.Wm.validate("wm", 1, specHeadroom*def.Wm.Max); err != nil {
		return err
	}
	if err := sp.MinRTO.validate("min_rto", 1e-3, unbounded); err != nil {
		return err
	}
	if len(sp.AckEvery) == 0 {
		return errors.New("chaos: ack_every set is empty")
	}
	for _, b := range sp.AckEvery {
		if b < 1 {
			return fmt.Errorf("chaos: ack_every value %d below 1", b)
		}
	}
	if len(sp.Variants) == 0 {
		return errors.New("chaos: variants set is empty")
	}
	for _, v := range sp.Variants {
		if _, ok := reno.VariantByName(v); !ok {
			return fmt.Errorf("chaos: unknown variant %q", v)
		}
	}
	if len(sp.Loss.Models) == 0 {
		return errors.New("chaos: loss.models set is empty")
	}
	for _, m := range sp.Loss.Models {
		if !validLossModels[m] {
			return fmt.Errorf("chaos: unknown loss model %q", m)
		}
	}
	if err := sp.Loss.Rate.validate("loss.rate", 0, 1); err != nil {
		return err
	}
	if err := sp.Loss.BurstLen.validate("loss.burst_len", 1, unbounded); err != nil {
		return err
	}
	if err := sp.Loss.BurstDur.validate("loss.burst_dur", 0, unbounded); err != nil {
		return err
	}
	if err := sp.Phases.validate("phases", 0, specHeadroom*def.Phases.Max); err != nil {
		return err
	}
	if err := sp.PhaseRate.validate("phase_rate", 1, unbounded); err != nil {
		return err
	}
	if err := sp.PhaseQueue.validate("phase_queue", 1, specHeadroom*def.PhaseQueue.Max); err != nil {
		return err
	}
	if err := sp.Faults.validate("faults", 0, specHeadroom*def.Faults.Max); err != nil {
		return err
	}
	if sp.Faults.Max > 0 && len(sp.FaultKinds) == 0 {
		return errors.New("chaos: faults requested but fault_kinds set is empty")
	}
	for _, k := range sp.FaultKinds {
		if !validFaultKinds[k] {
			return fmt.Errorf("chaos: unknown fault kind %q", k)
		}
	}
	if err := sp.FaultDur.validate("fault_dur", 1e-3, unbounded); err != nil {
		return err
	}
	if sp.FaultDur.Max >= sp.Duration.Min {
		return fmt.Errorf("chaos: fault_dur maximum %v does not fit inside the shortest duration %v",
			sp.FaultDur.Max, sp.Duration.Min)
	}
	if math.IsNaN(sp.FaultPeriodicProb) || sp.FaultPeriodicProb < 0 || sp.FaultPeriodicProb > 1 {
		return fmt.Errorf("chaos: fault_periodic_prob must be in [0, 1], got %v", sp.FaultPeriodicProb)
	}
	if err := sp.LossBurstRate.validate("loss_burst_rate", 1e-6, 1); err != nil {
		return err
	}
	if err := sp.ExtraDelay.validate("extra_delay", 1e-6, unbounded); err != nil {
		return err
	}
	if err := sp.Jitter.validate("jitter", 1e-6, unbounded); err != nil {
		return err
	}
	if err := sp.DupProb.validate("dup_prob", 1e-6, 1); err != nil {
		return err
	}
	if err := sp.Flows.validate("flows", 0, specHeadroom*def.Flows.Max); err != nil {
		return err
	}
	if sp.Flows.Max >= 2 {
		if err := sp.FlowRate.validate("flow_rate", 1, specHeadroom*def.FlowRate.Max); err != nil {
			return err
		}
		if err := sp.FlowQueue.validate("flow_queue", 1, specHeadroom*def.FlowQueue.Max); err != nil {
			return err
		}
	}
	if math.IsNaN(sp.Envelope.ModelErrorFactor) || sp.Envelope.ModelErrorFactor < 0 {
		return fmt.Errorf("chaos: envelope.model_error_factor must be non-negative, got %v", sp.Envelope.ModelErrorFactor)
	}
	if sp.Envelope.ModelErrorFactor > 0 && sp.Envelope.ModelErrorFactor < 1 {
		return fmt.Errorf("chaos: envelope.model_error_factor %v below 1 rejects perfect predictions", sp.Envelope.ModelErrorFactor)
	}
	if sp.Envelope.MinLossIndications < 0 {
		return fmt.Errorf("chaos: envelope.min_loss_indications must be non-negative, got %d", sp.Envelope.MinLossIndications)
	}
	return nil
}

// maxSpecBytes bounds a spec document; a real spec is a couple of
// kilobytes.
const maxSpecBytes = 1 << 20

// ParseSpec decodes and validates one JSON spec document. Unknown
// fields and trailing garbage are rejected — a typo'd knob silently
// ignored would run a different campaign than the one written down.
func ParseSpec(data []byte) (*Spec, error) {
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("chaos: spec document of %d bytes exceeds limit %d", len(data), maxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("chaos: spec: %w", err)
	}
	if dec.More() {
		return nil, errors.New("chaos: spec: trailing data after JSON document")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// ParseSpecFile reads and parses the spec document at path.
func ParseSpecFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// Encode renders the spec as indented JSON, the inverse of ParseSpec up
// to formatting.
func (sp *Spec) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("chaos: spec: encode: %w", err)
	}
	return append(data, '\n'), nil
}

// Hash returns a canonical content hash of the spec: equal specs hash
// identically however they were spelled in JSON. Campaign reports carry
// it so a report is attributable to the exact distribution that
// produced it.
func (sp *Spec) Hash() string {
	data, err := json.Marshal(sp)
	if err != nil {
		// Spec is a plain struct of numbers and strings; failure to
		// encode is a programming error.
		panic(fmt.Sprintf("chaos: spec hash: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
