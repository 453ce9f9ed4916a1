package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// trickleWriter appends one byte at a time and yields between bytes, so
// two Writes that overlap interleave their lines. It is safe for
// concurrent use on its own; keeping lines whole is the sink's job.
type trickleWriter struct {
	mu  sync.Mutex
	buf []byte
}

func (w *trickleWriter) Write(p []byte) (int, error) {
	for _, c := range p {
		w.mu.Lock()
		w.buf = append(w.buf, c)
		w.mu.Unlock()
		runtime.Gosched()
	}
	return len(p), nil
}

// logFields splits one access-log line into its key=value fields,
// reading a quoted value as one Go string literal.
func logFields(line string) ([][2]string, error) {
	var out [][2]string
	for line != "" {
		key, rest, ok := strings.Cut(line, "=")
		if !ok || key == "" || strings.ContainsAny(key, " \"") {
			return nil, fmt.Errorf("malformed field at %q", line)
		}
		var val string
		switch i := strings.IndexByte(rest, ' '); {
		case strings.HasPrefix(rest, `"`):
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return nil, fmt.Errorf("bad quoted value at %q: %v", rest, err)
			}
			val, rest = q, rest[len(q):]
		case i >= 0:
			val, rest = rest[:i], rest[i:]
		default:
			val, rest = rest, ""
		}
		if rest != "" && rest[0] != ' ' {
			return nil, fmt.Errorf("no space after value %s", val)
		}
		out = append(out, [2]string{key, val})
		line = strings.TrimPrefix(rest, " ")
	}
	return out, nil
}

// TestAccessLogResistsForgedFields sends a path with an encoded newline
// and an X-Request-Id carrying spoofed fields, alongside concurrent
// ordinary requests through a writer that interleaves unserialized
// writes. The log must hold exactly one well-formed line per request,
// with the fixed field order and no field the caller injected.
func TestAccessLogResistsForgedFields(t *testing.T) {
	const ordinary = 16
	w := &trickleWriter{}
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8, AccessLog: w})

	forgedPath := httptest.NewRequest(http.MethodGet, "/v1/jobs/x%0Arequest_id=forged%20status=200", nil)
	s.ServeHTTP(httptest.NewRecorder(), forgedPath)

	forgedID := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(`{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`))
	forgedID.Header.Set("X-Request-Id", "a status=500 duration_seconds=9")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, forgedID)
	if got := rec.Header().Get("X-Request-Id"); !strings.HasPrefix(got, "req-") {
		t.Errorf("unsafe X-Request-Id echoed as %q, want a server-assigned req- ID", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < ordinary; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"p":%g,"rtt":0.2,"t0":2.0,"wm":12}`, 0.01+0.001*float64(i))
			postJSONWithID(s, "/v1/predict", body, fmt.Sprintf("ok-%02d", i))
		}()
	}
	wg.Wait()

	lines := strings.Split(strings.TrimSuffix(string(w.buf), "\n"), "\n")
	if len(lines) != ordinary+2 {
		t.Fatalf("got %d log lines, want %d:\n%s", len(lines), ordinary+2, w.buf)
	}
	wantKeys := []string{"request_id", "method", "path", "status", "duration_seconds"}
	ids := map[string]bool{}
	for _, line := range lines {
		fields, err := logFields(line)
		if err != nil {
			t.Errorf("line %q: %v", line, err)
			continue
		}
		if len(fields) < len(wantKeys) {
			t.Errorf("line %q: %d fields, want at least %d", line, len(fields), len(wantKeys))
			continue
		}
		for i, k := range wantKeys {
			if fields[i][0] != k {
				t.Errorf("line %q: field %d is %q, want %q", line, i, fields[i][0], k)
			}
		}
		for _, f := range fields[len(wantKeys):] {
			switch f[0] {
			case "queue_seconds", "service_seconds", "trace":
			default:
				t.Errorf("line %q: unexpected field %q", line, f[0])
			}
		}
		if _, err := strconv.ParseFloat(fields[4][1], 64); err != nil {
			t.Errorf("line %q: duration_seconds %q is not a number", line, fields[4][1])
		}
		ids[fields[0][1]] = true
	}
	for i := 0; i < ordinary; i++ {
		if id := fmt.Sprintf("ok-%02d", i); !ids[id] {
			t.Errorf("no log line for request %s", id)
		}
	}
	if ids["forged"] || ids["a"] {
		t.Errorf("log carries a forged request_id: %v", ids)
	}
	if !strings.Contains(string(w.buf), `path="/v1/jobs/x\nrequest_id=forged status=200"`) {
		t.Errorf("forged path not logged as one quoted value:\n%s", w.buf)
	}
}
