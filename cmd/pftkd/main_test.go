package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFlagValidation rejects nonsensical sizing flags before binding a
// socket.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative workers", []string{"-workers", "-1"}, "-workers must be"},
		{"zero queue", []string{"-queue", "0"}, "-queue must be"},
		{"negative queue", []string{"-queue", "-8"}, "-queue must be"},
		{"zero cache", []string{"-cache", "0"}, "-cache must be"},
		{"zero maxbatch", []string{"-maxbatch", "0"}, "-maxbatch must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tc.args, &out, io.Discard)
			if err == nil {
				t.Fatalf("args %v: expected error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("args %v: error %q missing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "pftkd ") {
		t.Errorf("version output %q", out.String())
	}
}

// TestRunLifecycle boots the daemon on an ephemeral port with an access
// log and tracing on, serves a single predict, a batch and a simulate
// job over real TCP, checks that the request id reaches the spans and the
// access log, then cancels the context and requires a graceful drain.
func TestRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	addrfile := filepath.Join(dir, "addr")
	accessLog := filepath.Join(dir, "access.log")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addrfile", addrfile, "-workers", "2",
			"-accesslog", accessLog}, &out, io.Discard)
	}()

	// Wait for the address file: its presence means the listener is bound.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for {
		if b, err := os.ReadFile(addrfile); err == nil && len(b) > 0 {
			addr = string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}

	base := "http://" + addr
	// do sends one request and returns the status and body.
	do := func(method, path, body string, header http.Header) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range header {
			req.Header[k] = v
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: reading body: %v", method, path, err)
		}
		return resp.StatusCode, b
	}

	if code, _ := do("GET", "/healthz", "", nil); code != http.StatusOK {
		t.Errorf("healthz status %d", code)
	}

	code, body := do("POST", "/v1/predict", `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`,
		http.Header{"X-Request-Id": {"load-1"}})
	var pr struct {
		Rates map[string]float64 `json:"rates"`
	}
	if err := json.Unmarshal(body, &pr); code != http.StatusOK || err != nil || len(pr.Rates) == 0 {
		t.Errorf("predict: status %d err %v body %s", code, err, body)
	}

	code, body = do("POST", "/v1/predict", `{"requests":[{"p":0.01,"rtt":0.2,"t0":2,"wm":12},
		{"p":0.02,"rtt":0.2,"t0":2,"wm":12},{"p":0.05,"rtt":0.2,"t0":2,"wm":12},{"p":0.1,"rtt":0.2,"t0":2,"wm":12}]}`, nil)
	var batch struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); code != http.StatusOK || err != nil || len(batch.Results) != 4 {
		t.Errorf("batch: status %d err %v, want 4 results: %s", code, err, body)
	}

	code, body = do("POST", "/v1/simulate", `{"loss_rate":0.02,"duration":2,"seed":1}`, nil)
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &job); code != http.StatusAccepted || err != nil {
		t.Fatalf("simulate: status %d err %v body %s", code, err, body)
	}
	for deadline := time.Now().Add(10 * time.Second); job.Status != "done"; time.Sleep(10 * time.Millisecond) {
		if job.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("simulate job %s ended %q, want done", job.ID, job.Status)
		}
		if _, body = do("GET", "/v1/jobs/"+job.ID, "", nil); json.Unmarshal(body, &job) != nil {
			t.Fatalf("job poll: %s", body)
		}
	}

	if code, _ := do("GET", "/debug/tracez", "", nil); code != http.StatusOK {
		t.Errorf("/debug/tracez status %d", code)
	}
	_, spans := do("GET", "/debug/tracez?format=jsonl", "", nil)
	for _, want := range []string{`"name":"POST /v1/predict"`, `"name":"eval"`, `"key":"request_id","value":"load-1"`} {
		if !bytes.Contains(spans, []byte(want)) {
			t.Errorf("span export missing %s:\n%s", want, spans)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after cancel")
	}
	for _, want := range []string{"listening on http://", "drained and stopped"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	logged, err := os.ReadFile(accessLog)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"request_id=load-1", "queue_seconds="} {
		if !bytes.Contains(logged, []byte(want)) {
			t.Errorf("access log missing %q:\n%s", want, logged)
		}
	}
}

// TestBadAddrFails covers the listen-error path.
func TestBadAddrFails(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, &out, io.Discard)
	if err == nil {
		t.Fatal("expected listen error")
	}
	if strings.Contains(out.String(), "listening") {
		t.Errorf("claimed to listen despite error: %s", out.String())
	}
}
