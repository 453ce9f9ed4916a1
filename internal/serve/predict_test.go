package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// marshalBody is json.Marshal for values that cannot fail to encode.
func marshalBody(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestPredictBodiesByteIdentical pins the response bytes of the inline
// path: the body a miss computes, the body the following hit replays and
// json.Marshal of predict's answer plus the encoder's newline are the
// same bytes, for single points, Markov points and batches with
// duplicate keys.
func TestPredictBodiesByteIdentical(t *testing.T) {
	a := PredictRequest{P: 0.02, RTT: 0.2, T0: 2.0, Wm: 12}
	b := PredictRequest{P: 0.1, RTT: 0.05, T0: 1.0, Wm: 8, Models: []string{ModelNameFull, ModelNameApprox}}
	m := PredictRequest{P: 0.05, RTT: 0.1, T0: 1.0, Wm: 16, Models: []string{ModelNameMarkov, ModelNameFull}}
	cases := []struct {
		name  string
		reqs  []PredictRequest
		batch bool
	}{
		{"single", []PredictRequest{a}, false},
		{"markov", []PredictRequest{m}, false},
		{"batch with duplicate keys", []PredictRequest{a, b, a, m, b, m}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := make([]PredictResponse, len(tc.reqs))
			for i, r := range tc.reqs {
				resp, err := predict(r.normalize())
				if err != nil {
					t.Fatal(err)
				}
				results[i] = resp
			}
			body := marshalBody(t, tc.reqs[0])
			want := marshalBody(t, results[0]) + "\n"
			if tc.batch {
				body = marshalBody(t, map[string]any{"requests": tc.reqs})
				want = marshalBody(t, BatchResponse{Results: results}) + "\n"
			}
			s, reg := newTestServer(t, Config{})
			miss := postJSON(s, "/v1/predict", body)
			hit := postJSON(s, "/v1/predict", body)
			if miss.Code != http.StatusOK || hit.Code != http.StatusOK {
				t.Fatalf("status %d / %d: %s", miss.Code, hit.Code, miss.Body)
			}
			if got := miss.Body.String(); got != want {
				t.Errorf("miss body differs:\n%s\nwant\n%s", got, want)
			}
			if got := hit.Body.String(); got != want {
				t.Errorf("hit body differs:\n%s\nwant\n%s", got, want)
			}
			if n := reg.Snapshot().Counter("serve.cache.hits"); n < uint64(len(tc.reqs)) {
				t.Errorf("serve.cache.hits = %d, want the second request (%d points) served from the cache", n, len(tc.reqs))
			}
		})
	}
}

// TestConcurrentIdenticalMisses releases 16 identical misses at once:
// every one is answered, with the same bytes, however many of them
// evaluate.
func TestConcurrentIdenticalMisses(t *testing.T) {
	const k = 16
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	const body = `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`
	var (
		start  = make(chan struct{})
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies []string
	)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := postJSON(s, "/v1/predict", body)
			mu.Lock()
			defer mu.Unlock()
			if rec.Code != http.StatusOK {
				t.Errorf("status %d: %s", rec.Code, rec.Body)
				return
			}
			bodies = append(bodies, rec.Body.String())
		}()
	}
	close(start)
	wg.Wait()
	if len(bodies) != k {
		t.Fatalf("got %d successful responses, want %d", len(bodies), k)
	}
	for i, b := range bodies {
		if b != bodies[0] {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, b, bodies[0])
		}
	}
}

// TestPredictMissAfterCloseIs429 pins the shutdown half of admission: a
// closed server sheds misses with 429 + Retry-After but still answers
// what its cache holds.
func TestPredictMissAfterCloseIs429(t *testing.T) {
	s := New(Config{})
	const cached = `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`
	if rec := postJSON(s, "/v1/predict", cached); rec.Code != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", rec.Code, rec.Body)
	}
	s.Close()
	rec := postJSON(s, "/v1/predict", `{"p":0.03,"rtt":0.2,"t0":2.0,"wm":12}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("miss after Close: status %d, want 429; body %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if rec := postJSON(s, "/v1/predict", cached); rec.Code != http.StatusOK {
		t.Errorf("hit after Close: status %d, want 200", rec.Code)
	}
}

// TestPredictEvaluationCap fills the Workers + QueueDepth evaluation
// slots and requires the next miss to be shed, then served once a slot
// frees.
func TestPredictEvaluationCap(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	const body = `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`
	s.evaluating.Add(2)
	if rec := postJSON(s, "/v1/predict", body); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("miss at the cap: status %d, want 429", rec.Code)
	}
	s.evaluating.Add(-1)
	if rec := postJSON(s, "/v1/predict", body); rec.Code != http.StatusOK {
		t.Fatalf("miss below the cap: status %d, want 200; body %s", rec.Code, rec.Body)
	}
}

// TestIdleServerServesFullBatch posts a batch of 1,024 distinct points,
// the default -maxbatch, to an idle default server: admission counts the
// request once, so a valid batch is never shed for its size.
func TestIdleServerServesFullBatch(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	reqs := make([]PredictRequest, 1024)
	for i := range reqs {
		reqs[i] = PredictRequest{P: 0.0001 * float64(i+1), RTT: 0.2, T0: 2.0, Wm: 12}
	}
	rec := postJSON(s, "/v1/predict", marshalBody(t, map[string]any{"requests": reqs}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200; body %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(reqs))
	}
}
