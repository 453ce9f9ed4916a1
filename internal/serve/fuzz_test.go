package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"pftk/internal/reno"
)

// FuzzPredictDecode drives /v1/predict with arbitrary request bodies.
// Every body must be answered 200 with finite, non-negative rates, or 400
// with a named error; nothing may panic, in the handler or on a worker.
func FuzzPredictDecode(f *testing.F) {
	for _, body := range []string{
		`{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`,
		`{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12,"models":["markov"]}`,
		`{"p":1e-300,"rtt":0.2,"t0":2.0,"wm":65536,"b":1,"models":["markov"]}`,
		`{"p":0.99,"rtt":0.2,"t0":2.0,"wm":16384,"b":4,"models":["markov","full"]}`,
		`{"p":0.9999999999999999,"rtt":1e-300,"t0":1e300,"wm":1000,"models":["markov","approx"]}`,
		`{"p":0.5,"rtt":0.2,"t0":2.0,"wm":1e8,"models":["markov"]}`,
		`{"p":0.5,"rtt":0.2,"t0":2.0,"wm":12.5,"models":["markov"]}`,
		`{"p":0.1,"rtt":0.2,"t0":2.0,"wm":2,"b":1000000000,"models":["markov"]}`,
		`{"p":5e-324,"rtt":5e-324,"t0":5e-324,"wm":1e308}`,
		`{"requests":[{"p":0.02,"rtt":0.2,"t0":2.0},{"p":0.3,"rtt":0.1,"t0":1,"wm":4,"models":["markov"]}]}`,
		`{"p":0.02,`,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := postJSON(s, "/v1/predict", string(body))
		switch rec.Code {
		case http.StatusOK:
			var out struct {
				PredictResponse
				Results []PredictResponse `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 body %q does not decode: %v", rec.Body, err)
			}
			for _, resp := range append(out.Results, out.PredictResponse) {
				for m, v := range resp.Rates {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Fatalf("body %q: rate %s = %v", body, m, v)
					}
				}
			}
		case http.StatusBadRequest:
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("400 without a named error: %q", rec.Body)
			}
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
	})
}

// FuzzSimulateDecode drives the /v1/simulate request boundary —
// decodeStrict, normalize, validate, as handleSimulate runs them —
// without running a simulation. Nothing may panic, every rejection must
// carry a message, and every accepted request must be finite and inside
// validate's documented bounds.
func FuzzSimulateDecode(f *testing.F) {
	for _, body := range []string{
		`{"loss_rate":0.02,"duration":5,"seed":42}`,
		`{"loss_rate":0.02,"duration":2,"seed":9999}`,
		`{"loss_rate":0.01,"duration":10,"seed":42,"scenario":{"name":"step","phases":[{"at":5,"loss":{"rate":0.2}}]}}`,
		`{"rtt":0.3,"loss_rate":0.05,"burst_dur":0.4,"wm":16,"min_rto":0.5,"duration":60,"seed":1,"variant":"newreno","ack_every":1}`,
		`{`,
		`{"loss_rate":0.02,"duration":-5}`,
		`{"loss_rate":1.5}`,
		`{"loss_rate":0.02,"variant":"cubic"}`,
		`{"loss_rate":0.02,"wm":-3}`,
		`{"loss_rate":0.02,"duration":1e9}`,
		`{"loss_rate":0.01,"scenario":{"phases":[{"at":1}]}}`,
		`{"loss_rate":0.01,"scenario":{"faults":[{"kind":"fire","start":0,"dur":1}]}}`,
		`{"loss_rate":0.01,"scenario":{"phases":[{"at":2,"rtt":0.2},{"at":2,"rtt":0.3}]}}`,
		`{"loss_rate":0.01,"scenario":{"phazes":[]}}`,
		`{"loss_rate":0.01,"duration":50,"scenario":{"duration":50,"faults":[{"kind":"outage","start":49,"dur":5}]}}`,
		`{"loss_rate":0.01,"duration":10,"scenario":{"duration":60,"faults":[{"kind":"outage","start":20,"dur":5}]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
		var req SimulateRequest
		err := decodeStrict(r, &req)
		if err == nil {
			req = req.normalize()
			err = req.validate()
		}
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("body %q: rejected with an empty error", body)
			}
			return
		}
		// json.Marshal refuses NaN and ±Inf anywhere in the request,
		// scenario included.
		if _, err := json.Marshal(req); err != nil {
			t.Fatalf("body %q: accepted request is not finite: %v", body, err)
		}
		_, knownVariant := reno.VariantByName(req.Variant)
		switch {
		case req.RTT <= 0, req.LossRate < 0, req.LossRate > 1, req.BurstDur < 0,
			req.Wm < 1, req.MinRTO <= 0, req.Duration <= 0, req.Duration > maxSimDuration,
			!knownVariant, req.AckEvery < 1:
			t.Fatalf("body %q: accepted out-of-bounds request %+v", body, req)
		case req.Scenario != nil && req.Scenario.Duration > req.Duration:
			t.Fatalf("body %q: scenario duration %v exceeds run duration %v", body, req.Scenario.Duration, req.Duration)
		}
	})
}
