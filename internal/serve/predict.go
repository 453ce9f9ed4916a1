package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"pftk/internal/core"
	"pftk/internal/markov"
)

// Model names accepted in PredictRequest.Models.
const (
	ModelNameFull       = "full"       // eq. (32), the paper's headline model
	ModelNameApprox     = "approx"     // eq. (33) closed form
	ModelNameTDOnly     = "tdonly"     // Mathis et al. square-root baseline
	ModelNameThroughput = "throughput" // receiver-side rate, eq. (37)
	ModelNameMarkov     = "markov"     // numerically-solved chain (Fig. 12)
)

// defaultModels is what a request without an explicit model list gets:
// every closed-form characterization. The Markov chain is opt-in — it
// costs a pass over its Wm·b states rather than a formula evaluation.
var defaultModels = []string{ModelNameApprox, ModelNameFull, ModelNameTDOnly, ModelNameThroughput}

// PredictRequest asks for model predictions at one (p, RTT, T0, Wm, b)
// operating point.
type PredictRequest struct {
	// P is the loss-indication rate, in [0, 1].
	P float64 `json:"p"`
	// RTT is the average round trip time in seconds.
	RTT float64 `json:"rtt"`
	// T0 is the average first-timeout duration in seconds.
	T0 float64 `json:"t0"`
	// Wm is the receiver's advertised window in packets; 0 or absent
	// means unlimited.
	Wm float64 `json:"wm,omitempty"`
	// B is the delayed-ACK ratio; 0 or absent means the paper's b = 2.
	B int `json:"b,omitempty"`
	// Models selects which characterizations to evaluate; empty means
	// full, approx, tdonly and throughput. "markov" must be requested
	// explicitly.
	Models []string `json:"models,omitempty"`
}

// normalize fills defaults and sorts the model list so that equivalent
// requests share one canonical form (and therefore one cache key).
func (r PredictRequest) normalize() PredictRequest {
	if r.B == 0 {
		r.B = core.DefaultB
	}
	if r.Wm < 0 {
		r.Wm = 0
	}
	if len(r.Models) == 0 {
		r.Models = defaultModels
	} else {
		models := append([]string(nil), r.Models...)
		sort.Strings(models)
		// Drop adjacent duplicates: {"full","full"} is the same ask as
		// {"full"}.
		r.Models = models[:0]
		for i, m := range models {
			if i == 0 || m != models[i-1] {
				r.Models = append(r.Models, m)
			}
		}
	}
	return r
}

// validate reports the first problem with a normalized request.
func (r PredictRequest) validate() error {
	switch {
	case math.IsNaN(r.P) || r.P < 0 || r.P > 1:
		return fmt.Errorf("p must be in [0, 1], got %v", r.P)
	case math.IsNaN(r.RTT) || math.IsInf(r.RTT, 0) || r.RTT <= 0:
		return fmt.Errorf("rtt must be positive and finite, got %v", r.RTT)
	case math.IsNaN(r.T0) || math.IsInf(r.T0, 0) || r.T0 <= 0:
		return fmt.Errorf("t0 must be positive and finite, got %v", r.T0)
	case math.IsNaN(r.Wm) || math.IsInf(r.Wm, 0):
		return fmt.Errorf("wm must be finite, got %v", r.Wm)
	case r.B < 1:
		return fmt.Errorf("b must be at least 1, got %d", r.B)
	}
	for _, m := range r.Models {
		switch m {
		case ModelNameFull, ModelNameApprox, ModelNameTDOnly, ModelNameThroughput:
		case ModelNameMarkov:
			if r.Wm < 1 {
				return fmt.Errorf("model %q needs wm >= 1 (the chain's state space is bounded by the advertised window)", m)
			}
			if math.Mod(r.Wm, 1) != 0 {
				return fmt.Errorf("model %q needs an integer wm (the chain's windows are whole packets), got %v", m, r.Wm)
			}
			if r.Wm*float64(r.B) > markov.MaxStates {
				return fmt.Errorf("model %q: wm·b = %v·%d exceeds the chain's %d-state cap", m, r.Wm, r.B, markov.MaxStates)
			}
			if !(r.P > 0 && r.P < 1) {
				return fmt.Errorf("model %q needs p strictly inside (0, 1), got %v", m, r.P)
			}
		default:
			return fmt.Errorf("unknown model %q (valid: %s, %s, %s, %s, %s)", m,
				ModelNameApprox, ModelNameFull, ModelNameMarkov, ModelNameTDOnly, ModelNameThroughput)
		}
	}
	return nil
}

// params converts the request into model parameters.
func (r PredictRequest) params() core.Params {
	return core.Params{RTT: r.RTT, T0: r.T0, Wm: r.Wm, B: r.B}
}

// PredictResponse carries the rates for one request, in packets per
// second, keyed by model name.
type PredictResponse struct {
	Request PredictRequest     `json:"request"`
	Rates   map[string]float64 `json:"rates"`
}

// predict evaluates every requested model for an already-normalized,
// already-validated request.
func predict(r PredictRequest) (PredictResponse, error) {
	pr := r.params()
	rates := make(map[string]float64, len(r.Models))
	for _, m := range r.Models {
		switch m {
		case ModelNameFull:
			rates[m] = core.SendRateFull(r.P, pr)
		case ModelNameApprox:
			rates[m] = core.SendRateApprox(r.P, pr)
		case ModelNameTDOnly:
			rates[m] = core.SendRateTDOnly(r.P, pr.RTT, float64(r.B))
		case ModelNameThroughput:
			rates[m] = core.Throughput(r.P, pr)
		case ModelNameMarkov:
			rate, err := markov.SendRate(r.P, markov.Config{RTT: r.RTT, T0: r.T0, Wm: int(r.Wm), B: r.B})
			if err != nil {
				return PredictResponse{}, fmt.Errorf("markov: %w", err)
			}
			rates[m] = rate
		}
		// JSON has no NaN or Inf, and extreme inputs (rtt near the
		// smallest float, say) drive the closed forms to either.
		if v := rates[m]; math.IsNaN(v) || math.IsInf(v, 0) {
			return PredictResponse{}, fmt.Errorf("model %q has no finite rate at this point, got %v", m, v)
		}
	}
	return PredictResponse{Request: r, Rates: rates}, nil
}

// predictBody evaluates r and encodes its single-point response: JSON
// plus a trailing newline, byte-identical to what json.Encoder writes.
func predictBody(r PredictRequest) ([]byte, error) {
	resp, err := predict(r)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(resp)
	if err != nil {
		// Responses are plain structs of numbers and strings; an encoding
		// failure is a programming error, not an input error.
		panic(fmt.Sprintf("serve: encode predict response: %v", err))
	}
	return append(data, '\n'), nil
}
