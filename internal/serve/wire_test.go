package serve

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// members decodes raw as a JSON object and returns its member names,
// sorted.
func members(t *testing.T, raw []byte) []string {
	t.Helper()
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("body is not a JSON object: %v\n%s", err, raw)
	}
	names := make([]string, 0, len(obj))
	for k := range obj {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

// member returns the raw JSON of obj's member name.
func member(t *testing.T, obj []byte, name string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(obj, &m); err != nil {
		t.Fatal(err)
	}
	raw, ok := m[name]
	if !ok {
		t.Fatalf("no member %q in %s", name, obj)
	}
	return raw
}

// wantMembers fails unless the object raw has exactly the given member
// names.
func wantMembers(t *testing.T, what string, raw []byte, want string) {
	t.Helper()
	if got := strings.Join(members(t, raw), " "); got != want {
		t.Errorf("%s members = [%s], want [%s]", what, got, want)
	}
}

// Member names on the wire, sorted. These are the API: a client that
// decodes by name breaks when one changes, even though a Go client
// decoding into this package's structs would not notice.
const (
	predictMembers        = "rates request"
	predictRequestMembers = "b models p rtt t0 wm"
	rateMembers           = "approx full tdonly throughput"
	jobQueuedMembers      = "id request request_id status"
	jobDoneMembers        = "id request request_id result status"
	simulateRequestFields = "ack_every duration loss_rate min_rto rtt seed variant wm"
	simulateResultFields  = "delivered duration loss_indication_rate measured_p measured_rtt measured_t0 packets_sent predicted_approx predicted_full retransmits send_rate td_events throughput timeout_events trace_records"
)

// TestWireMemberNames pins the JSON member names of the /v1/predict
// (single point and batch), /v1/simulate and /v1/jobs/{id} bodies by
// decoding them as generic objects, not into the structs that encode
// them.
func TestWireMemberNames(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	rec := postJSON(s, "/v1/predict", `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.Bytes()
	wantMembers(t, "predict", body, predictMembers)
	wantMembers(t, "predict request", member(t, body, "request"), predictRequestMembers)
	wantMembers(t, "predict rates", member(t, body, "rates"), rateMembers)

	rec = postJSON(s, "/v1/predict", `{"requests":[{"p":0.01,"rtt":0.2,"t0":2,"wm":8},{"p":0.05,"rtt":0.1,"t0":1,"wm":32,"models":["full"]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	body = rec.Body.Bytes()
	wantMembers(t, "batch", body, "results")
	var results []json.RawMessage
	if err := json.Unmarshal(member(t, body, "results"), &results); err != nil || len(results) != 2 {
		t.Fatalf("batch results: %v (%d elements)", err, len(results))
	}
	for _, r := range results {
		wantMembers(t, "batch element", r, predictMembers)
		wantMembers(t, "batch element request", member(t, r, "request"), predictRequestMembers)
	}

	rec = postJSON(s, "/v1/simulate", `{"loss_rate":0.02,"duration":5,"seed":42}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("simulate status %d: %s", rec.Code, rec.Body)
	}
	body = rec.Body.Bytes()
	wantMembers(t, "simulate", body, jobQueuedMembers)
	wantMembers(t, "simulate request", member(t, body, "request"), simulateRequestFields)
	var id string
	if err := json.Unmarshal(member(t, body, "id"), &id); err != nil {
		t.Fatal(err)
	}

	waitForJob(t, s, id)
	rec = getPath(s, "/v1/jobs/"+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("job status %d: %s", rec.Code, rec.Body)
	}
	body = rec.Body.Bytes()
	wantMembers(t, "job", body, jobDoneMembers)
	wantMembers(t, "job request", member(t, body, "request"), simulateRequestFields)
	wantMembers(t, "job result", member(t, body, "result"), simulateResultFields)
}
