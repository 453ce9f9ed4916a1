package scenario

import (
	"errors"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }
func iptr(v int) *int        { return &v }

func TestValidateAcceptsWellFormedScenario(t *testing.T) {
	s := &Scenario{
		Name: "step-loss",
		Phases: []Phase{
			{At: 0, Loss: &LossSpec{Rate: 0.01}},
			{At: 30, Loss: &LossSpec{Rate: 0.1, Model: LossGE, BurstLen: 3}, RTT: f64(0.3)},
			{At: 60, Rate: f64(0), QueueCap: iptr(16)},
		},
		Faults: []Fault{
			{Kind: KindOutage, Start: 10, Dur: 2},
			{Kind: KindLossBurst, Start: 5, Dur: 1, LossRate: 0.5, Period: 20, Count: 3},
			{Kind: KindDelaySpike, Start: 40, Dur: 5, ExtraDelay: 0.2},
			{Kind: KindReorder, Start: 50, Dur: 5, Jitter: 0.05},
			{Kind: KindDuplicate, Start: 55, Dur: 5, Prob: 0.1},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateNilAndZeroScenarios(t *testing.T) {
	var nilSc *Scenario
	if err := nilSc.Validate(); err != nil {
		t.Errorf("nil scenario: %v", err)
	}
	if err := (&Scenario{}).Validate(); err != nil {
		t.Errorf("zero scenario: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"negative phase time", Scenario{Phases: []Phase{{At: -1, RTT: f64(0.1)}}}, "non-negative"},
		{"empty phase", Scenario{Phases: []Phase{{At: 0}}}, "changes nothing"},
		{"non-increasing phases", Scenario{Phases: []Phase{
			{At: 5, RTT: f64(0.1)}, {At: 5, RTT: f64(0.2)},
		}}, "strictly increasing"},
		{"loss rate out of range", Scenario{Phases: []Phase{{At: 0, Loss: &LossSpec{Rate: 1.5}}}}, "loss rate"},
		{"unknown loss model", Scenario{Phases: []Phase{{At: 0, Loss: &LossSpec{Rate: 0.1, Model: "weibull"}}}}, "unknown loss model"},
		{"zero rtt", Scenario{Phases: []Phase{{At: 0, RTT: f64(0)}}}, "rtt must be positive"},
		{"negative rate", Scenario{Phases: []Phase{{At: 0, Rate: f64(-1)}}}, "rate must be non-negative"},
		{"negative queue", Scenario{Phases: []Phase{{At: 0, QueueCap: iptr(-1)}}}, "queue_cap"},
		{"unknown fault kind", Scenario{Faults: []Fault{{Kind: "fire", Start: 0, Dur: 1}}}, "unknown kind"},
		{"zero duration fault", Scenario{Faults: []Fault{{Kind: KindOutage, Start: 0, Dur: 0}}}, "dur must be positive"},
		{"overlapping period", Scenario{Faults: []Fault{{Kind: KindOutage, Start: 0, Dur: 5, Period: 2}}}, "shorter than dur"},
		{"count without period", Scenario{Faults: []Fault{{Kind: KindOutage, Start: 0, Dur: 1, Count: 2}}}, "needs a positive period"},
		{"loss burst without rate", Scenario{Faults: []Fault{{Kind: KindLossBurst, Start: 0, Dur: 1}}}, "loss_rate"},
		{"delay spike without delay", Scenario{Faults: []Fault{{Kind: KindDelaySpike, Start: 0, Dur: 1}}}, "extra_delay"},
		{"reorder without jitter", Scenario{Faults: []Fault{{Kind: KindReorder, Start: 0, Dur: 1}}}, "jitter"},
		{"duplicate bad prob", Scenario{Faults: []Fault{{Kind: KindDuplicate, Start: 0, Dur: 1, Prob: 2}}}, "prob"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestValidateDuration pins the declared-duration contract: with
// Duration set, any phase or fault occurrence past the end is rejected
// with a named, errors.Is-matchable error instead of being silently
// truncated at run time; with Duration unset nothing changes.
func TestValidateDuration(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		want error // nil = must validate
	}{
		{"no duration declared checks nothing", Scenario{
			Faults: []Fault{{Kind: KindOutage, Start: 1e6, Dur: 5}},
		}, nil},
		{"negative duration", Scenario{Duration: -1}, errBadDuration},
		{"program that fits", Scenario{
			Duration: 100,
			Phases:   []Phase{{At: 50, RTT: f64(0.2)}},
			Faults: []Fault{
				{Kind: KindOutage, Start: 90, Dur: 10},
				{Kind: KindLossBurst, Start: 5, Dur: 1, LossRate: 0.5, Period: 30, Count: 4},
			},
		}, nil},
		{"phase at the end", Scenario{
			Duration: 100,
			Phases:   []Phase{{At: 100, RTT: f64(0.2)}},
		}, ErrPhasePastEnd},
		{"one-shot fault straddling the end", Scenario{
			Duration: 100,
			Faults:   []Fault{{Kind: KindOutage, Start: 99, Dur: 2}},
		}, ErrFaultPastEnd},
		{"one-shot fault entirely past the end", Scenario{
			Duration: 100,
			Faults:   []Fault{{Kind: KindDelaySpike, Start: 200, Dur: 1, ExtraDelay: 0.1}},
		}, ErrFaultPastEnd},
		{"bounded train overrunning the end", Scenario{
			Duration: 100,
			Faults:   []Fault{{Kind: KindLossBurst, Start: 5, Dur: 1, LossRate: 0.5, Period: 40, Count: 4}},
		}, ErrFaultPastEnd},
		{"unbounded train is horizon-clipped by design", Scenario{
			Duration: 100,
			Faults:   []Fault{{Kind: KindOutage, Start: 10, Dur: 2, Period: 30}},
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if tc.want == errBadDuration {
				if err == nil || !strings.Contains(err.Error(), "duration must be") {
					t.Fatalf("Validate() = %v, want duration range error", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// errBadDuration marks the table entries whose rejection carries no
// sentinel (plain range validation).
var errBadDuration = errors.New("bad duration marker")

// TestDurationRoundTripsAndHashes pins that the new field survives the
// codec and that declaring it changes the canonical hash (it is part of
// the program, so caches must not collide a bounded scenario with its
// unbounded twin).
func TestDurationRoundTrips(t *testing.T) {
	s := &Scenario{Name: "d", Duration: 60, Phases: []Phase{{At: 10, RTT: f64(0.2)}}}
	enc, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode() = %v", err)
	}
	back, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse(Encode()) = %v", err)
	}
	if back.Duration != 60 {
		t.Fatalf("Duration round-tripped to %v, want 60", back.Duration)
	}
	unbounded := &Scenario{Name: "d", Phases: []Phase{{At: 10, RTT: f64(0.2)}}}
	if s.Hash() == unbounded.Hash() {
		t.Error("declared duration does not change the canonical hash")
	}
}

// goldenJSON is the canonical encoding of goldenScenario; the round-trip
// Parse(goldenJSON) == goldenScenario and Encode(goldenScenario) ==
// goldenJSON pins the wire format.
const goldenJSON = `{
  "name": "golden",
  "phases": [
    {
      "at": 0,
      "loss": {
        "rate": 0.02
      }
    },
    {
      "at": 30,
      "loss": {
        "rate": 0.1,
        "model": "ge",
        "burst_len": 2.5
      },
      "rtt": 0.35,
      "rate": 250,
      "queue_cap": 20
    }
  ],
  "faults": [
    {
      "kind": "outage",
      "start": 10,
      "dur": 1.5
    },
    {
      "kind": "loss_burst",
      "start": 5,
      "dur": 2,
      "loss_rate": 0.25,
      "period": 15,
      "count": 3
    }
  ]
}
`

func goldenScenario() *Scenario {
	return &Scenario{
		Name: "golden",
		Phases: []Phase{
			{At: 0, Loss: &LossSpec{Rate: 0.02}},
			{At: 30, Loss: &LossSpec{Rate: 0.1, Model: LossGE, BurstLen: 2.5},
				RTT: f64(0.35), Rate: f64(250), QueueCap: iptr(20)},
		},
		Faults: []Fault{
			{Kind: KindOutage, Start: 10, Dur: 1.5},
			{Kind: KindLossBurst, Start: 5, Dur: 2, LossRate: 0.25, Period: 15, Count: 3},
		},
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	parsed, err := Parse([]byte(goldenJSON))
	if err != nil {
		t.Fatalf("Parse(golden) = %v", err)
	}
	want := goldenScenario()
	if parsed.Hash() != want.Hash() {
		t.Fatalf("parsed golden differs from expected scenario:\n%+v\nvs\n%+v", parsed, want)
	}
	enc, err := want.Encode()
	if err != nil {
		t.Fatalf("Encode() = %v", err)
	}
	if string(enc) != goldenJSON {
		t.Fatalf("Encode() drifted from golden:\n%s", enc)
	}
	// And Encode∘Parse is the identity on the parsed form.
	again, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse(Encode()) = %v", err)
	}
	if again.Hash() != want.Hash() {
		t.Fatal("Parse(Encode()) changed the scenario")
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"unknown field", `{"name": "x", "phasez": []}`},
		{"trailing garbage", `{"name": "x"} {"again": true}`},
		{"invalid content", `{"phases": [{"at": -3, "rtt": 0.1}]}`},
		{"not json", `hello`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse([]byte(tc.doc)); err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.doc)
			}
		})
	}
}

func TestParseRejectsOversizeDocument(t *testing.T) {
	doc := `{"name": "` + strings.Repeat("x", maxDocumentBytes) + `"}`
	if _, err := Parse([]byte(doc)); err == nil {
		t.Fatal("Parse accepted an oversized document")
	}
}

func TestHash(t *testing.T) {
	if (*Scenario)(nil).Hash() != "" {
		t.Error("nil scenario should hash to empty string")
	}
	a := goldenScenario()
	b := goldenScenario()
	if a.Hash() != b.Hash() {
		t.Error("equal scenarios hash differently")
	}
	b.Phases[0].Loss.Rate = 0.03
	if a.Hash() == b.Hash() {
		t.Error("different scenarios hash identically")
	}
	if len(a.Hash()) != 64 {
		t.Errorf("Hash() = %q, want 64 hex chars", a.Hash())
	}
}
