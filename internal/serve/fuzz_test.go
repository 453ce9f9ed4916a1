package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"
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
