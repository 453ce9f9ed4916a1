package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pftk/internal/tracez"
)

// postJSONWithID is postJSON plus a caller-supplied X-Request-Id.
func postJSONWithID(s *Server, path, body, reqID string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("X-Request-Id", reqID)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestRequestIDLifecycle follows one X-Request-Id through the whole
// pipeline: the simulate response echoes it, the job record carries it
// to completion, the trace's root span is annotated with it, and the
// root's children are visible through /debug/tracez.
func TestRequestIDLifecycle(t *testing.T) {
	tr := tracez.New(tracez.Options{Shards: 2, PerShard: 64})
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Tracer: tr})
	const reqID = "lifecycle-0042"

	rec := postJSONWithID(s, "/v1/simulate", `{"loss_rate":0.02,"duration":2,"seed":7}`, reqID)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d, body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Request-Id"); got != reqID {
		t.Fatalf("response X-Request-Id = %q, want %q (the id must be echoed)", got, reqID)
	}
	var submitted Job
	if err := json.Unmarshal(rec.Body.Bytes(), &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.RequestID != reqID {
		t.Fatalf("submitted job request_id = %q, want %q", submitted.RequestID, reqID)
	}

	job := waitForJob(t, s, submitted.ID)
	if job.Status != JobDone {
		t.Fatalf("job did not complete: %+v", job)
	}
	if job.RequestID != reqID {
		t.Fatalf("completed job request_id = %q, want %q (lost across the queue)", job.RequestID, reqID)
	}

	// The job's eval span ends inside the worker, which may still be
	// committing when the job flips to done; poll for the trace.
	root, children := waitForTrace(t, tr, reqID)
	if root.Name != "POST /v1/simulate" {
		t.Errorf("root span name = %q, want POST /v1/simulate", root.Name)
	}
	names := map[string]bool{}
	for _, c := range children {
		names[c.Name] = true
	}
	for _, want := range []string{"cache", "admission", "queue-wait", "eval"} {
		if !names[want] {
			t.Errorf("root span has no %q child (children: %v)", want, names)
		}
	}

	// The same spans must be visible over the wire.
	viewRec := getPath(s, "/debug/tracez?format=json")
	if viewRec.Code != http.StatusOK {
		t.Fatalf("/debug/tracez status %d: %s", viewRec.Code, viewRec.Body)
	}
	if body := viewRec.Body.String(); !strings.Contains(body, reqID) {
		t.Errorf("/debug/tracez JSON does not mention request id %q", reqID)
	}
}

// waitForTrace polls the tracer until the root span annotated with
// reqID and its children have committed, returning both.
func waitForTrace(t *testing.T, tr *tracez.Tracer, reqID string) (tracez.Record, []tracez.Record) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := tr.Snapshot()
		var root tracez.Record
		for _, rec := range snap {
			if rec.Parent != 0 {
				continue
			}
			for _, a := range rec.Attrs {
				if a.Key == "request_id" && a.Value == reqID {
					root = rec
				}
			}
		}
		if root.Span != 0 {
			var children []tracez.Record
			for _, rec := range snap {
				if rec.Trace == root.Trace && rec.Parent == root.Span {
					children = append(children, rec)
				}
			}
			// cache, admission, queue-wait, eval: wait for all four so a
			// mid-commit snapshot cannot flake the assertions above.
			if len(children) >= 4 {
				return root, children
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace for request %q never fully committed; snapshot has %d spans", reqID, len(snap))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPredictMissSpans requires a predict miss's root span to carry the
// stages of the inline path: cache lookup, admission and evaluation.
func TestPredictMissSpans(t *testing.T) {
	tr := tracez.New(tracez.Options{Shards: 2, PerShard: 64})
	s, _ := newTestServer(t, Config{Tracer: tr})
	const reqID = "predict-miss-0001"
	if rec := postJSONWithID(s, "/v1/predict", `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`, reqID); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	root, children := waitForTrace(t, tr, reqID)
	if root.Name != "POST /v1/predict" {
		t.Errorf("root span name = %q, want POST /v1/predict", root.Name)
	}
	names := map[string]bool{}
	for _, c := range children {
		names[c.Name] = true
	}
	for _, want := range []string{"cache", "admission", "eval"} {
		if !names[want] {
			t.Errorf("root span has no %q child (children: %v)", want, names)
		}
	}
}
