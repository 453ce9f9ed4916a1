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

// TestRunLifecycle boots the daemon on an ephemeral port, talks to it
// over real TCP, cancels the context and requires a graceful drain.
func TestRunLifecycle(t *testing.T) {
	addrfile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addrfile", addrfile, "-workers", "2"}, &out, io.Discard)
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
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
	_ = resp.Body.Close()

	body := strings.NewReader(`{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`)
	resp, err = http.Post(base+"/v1/predict", "application/json", body)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	var pr struct {
		Rates map[string]float64 `json:"rates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode predict: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(pr.Rates) == 0 {
		t.Errorf("predict status %d rates %v", resp.StatusCode, pr.Rates)
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
