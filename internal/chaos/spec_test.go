package chaos

import (
	"strings"
	"testing"
)

// TestDefaultSpecValid pins that the shipped default distribution is
// itself valid — the smoke target runs it unmodified.
func TestDefaultSpecValid(t *testing.T) {
	sp := DefaultSpec()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpecCodecRoundTrip pins Parse(Encode(spec)) == spec and that the
// canonical hash survives the trip.
func TestSpecCodecRoundTrip(t *testing.T) {
	sp := DefaultSpec()
	data, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != sp.Hash() {
		t.Errorf("hash changed across the codec round trip: %s vs %s", back.Hash(), sp.Hash())
	}
	if len(back.Variants) != len(sp.Variants) || back.RTT != sp.RTT || back.Envelope != sp.Envelope {
		t.Errorf("round trip altered the spec: %+v", back)
	}
}

// TestSpecCodecStrict pins the strict-parsing contract: unknown fields,
// trailing garbage and semantic violations are all rejected.
func TestSpecCodecStrict(t *testing.T) {
	def := DefaultSpec()
	valid, err := def.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, doc, wantErr string
	}{
		{"unknown field", `{"rtt":{"min":0.1,"max":0.1},"phazes":{}}`, "unknown field"},
		{"trailing garbage", strings.TrimRight(string(valid), "\n") + `{"again":1}`, "trailing data"},
		{"inverted range", mutate(t, valid, `"min": 0.02`, `"min": 0.5`), "inverted"},
		{"empty variants", mutate(t, valid, `"variants": [`, `"variants_gone": [`), "unknown field"},
		{"bad loss model", mutate(t, valid, `"bernoulli"`, `"markov9"`), "unknown loss model"},
		{"bad fault kind", mutate(t, valid, `"outage"`, `"meteor"`), "unknown fault kind"},
		{"fault longer than shortest run", mutate(t, valid, `"min": 4`, `"min": 1`), "does not fit"},
		{"envelope below one", mutate(t, valid, `"model_error_factor": 10`, `"model_error_factor": 0.5`), "rejects perfect predictions"},
		// Used to pass ParseSpec and then panic in Generate ("sim: Intn
		// with non-positive n"): the sampler's Max-Min+1 overflowed.
		{"unbounded phases", mutate(t, valid, "\"phases\": {\n    \"min\": 0,\n    \"max\": 3\n  }", `"phases": {"min": 0, "max": 9223372036854775807}`), "chaos: phases range maximum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.doc))
			if err == nil {
				t.Fatalf("parsed, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q missing %q", err, tc.wantErr)
			}
		})
	}
}

// mutate replaces the first occurrence of old in the encoded default
// spec, failing the test if the marker is absent (a future re-encoding
// would silently neuter the case).
func mutate(t *testing.T, doc []byte, old, new string) string {
	t.Helper()
	s := string(doc)
	if !strings.Contains(s, old) {
		t.Fatalf("encoded default spec no longer contains %q", old)
	}
	return strings.Replace(s, old, new, 1)
}

// TestSpecBounds pins each upper bound Validate enforces: a knob at
// specHeadroom times its default maximum is valid and generates valid
// cases; one step above, the spec is rejected by the knob's name.
func TestSpecBounds(t *testing.T) {
	def := DefaultSpec()
	knobs := []struct {
		name string
		set  func(sp *Spec, step int)
	}{
		{"wm", func(sp *Spec, s int) { sp.Wm.Max = specHeadroom*def.Wm.Max + s }},
		{"phases", func(sp *Spec, s int) { sp.Phases.Max = specHeadroom*def.Phases.Max + s }},
		{"phase_queue", func(sp *Spec, s int) { sp.PhaseQueue.Max = specHeadroom*def.PhaseQueue.Max + s }},
		{"faults", func(sp *Spec, s int) { sp.Faults.Max = specHeadroom*def.Faults.Max + s }},
		{"flows", func(sp *Spec, s int) { sp.Flows.Max = specHeadroom*def.Flows.Max + s }},
		{"flow_queue", func(sp *Spec, s int) { sp.FlowQueue.Max = specHeadroom*def.FlowQueue.Max + s }},
		{"duration", func(sp *Spec, s int) { sp.Duration.Max = specHeadroom*def.Duration.Max + float64(s) }},
		{"flow_rate", func(sp *Spec, s int) { sp.FlowRate.Max = specHeadroom*def.FlowRate.Max + float64(s) }},
	}
	for _, k := range knobs {
		sp := DefaultSpec()
		k.set(&sp, 0)
		if err := sp.Validate(); err != nil {
			t.Errorf("%s at its bound: %v", k.name, err)
		}
		for i := 0; i < 5; i++ {
			if _, err := Generate(&sp, 1, i); err != nil {
				t.Errorf("%s at its bound, case %d: %v", k.name, i, err)
			}
		}
		k.set(&sp, 1)
		if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "chaos: "+k.name+" range maximum") {
			t.Errorf("%s above its bound: Validate = %v, want it rejected by name", k.name, err)
		}
	}
}
