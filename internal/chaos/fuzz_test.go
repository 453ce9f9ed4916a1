package chaos

import (
	"strings"
	"testing"
)

// FuzzParseSpec drives the spec document boundary. Nothing may panic,
// every rejection must be a named chaos error, and every accepted spec
// must be finite, inside Validate's documented bounds, survive an
// Encode/ParseSpec round trip with its hash intact, and generate valid
// cases.
func FuzzParseSpec(f *testing.F) {
	def := DefaultSpec()
	valid, err := def.Encode()
	if err != nil {
		f.Fatal(err)
	}
	doc := string(valid)
	f.Add(valid)
	for _, r := range [][2]string{
		{`"min": 0.02`, `"min": 0.5`},
		{`"variants": [`, `"variants_gone": [`},
		{`"bernoulli"`, `"markov9"`},
		{`"outage"`, `"meteor"`},
		{`"min": 4`, `"min": 1`},
		{`"model_error_factor": 10`, `"model_error_factor": 0.5`},
		{`"max": 4`, `"max": 1e400`},
		{`"max": 3`, `"max": 9223372036854775807`},
	} {
		f.Add([]byte(strings.Replace(doc, r[0], r[1], 1)))
	}
	f.Add([]byte(`{"rtt":{"min":0.1,"max":0.1},"phazes":{}}`))
	f.Add([]byte(strings.TrimRight(doc, "\n") + `{"again":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "chaos: ") {
				t.Fatalf("rejection %q is not a named chaos error", err)
			}
			return
		}
		switch {
		case sp.RTT.Min < 1e-4, sp.Duration.Min < 0.5, sp.Wm.Min < 1, sp.MinRTO.Min < 1e-3,
			sp.Loss.Rate.Min < 0, sp.Loss.Rate.Max > 1, sp.FaultDur.Max >= sp.Duration.Min,
			sp.FaultPeriodicProb < 0, sp.FaultPeriodicProb > 1,
			sp.LossBurstRate.Max > 1, sp.DupProb.Max > 1,
			len(sp.AckEvery) == 0, len(sp.Variants) == 0, len(sp.Loss.Models) == 0,
			sp.Envelope.ModelErrorFactor < 0, sp.Envelope.MinLossIndications < 0:
			t.Fatalf("accepted out-of-bounds spec %+v", sp)
		}
		// Encode goes through json.Marshal, which refuses NaN and ±Inf.
		enc, err := sp.Encode()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		back, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, enc)
		}
		if back.Hash() != sp.Hash() {
			t.Fatalf("hash changed across the codec round trip:\n%s", enc)
		}
		// Generate validates the case it returns.
		for i := 0; i < 3; i++ {
			if _, err := Generate(sp, 1, i); err != nil {
				t.Fatalf("accepted spec generates an invalid case %d: %v\n%s", i, err, enc)
			}
		}
	})
}
