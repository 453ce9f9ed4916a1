package serve

import (
	"io"
	"sync"
)

// logSink serializes access-log lines onto one writer. Lines are
// formatted by the requesting goroutine with no lock held; the mutex
// covers only the Write, so each line reaches w whole and append returns
// only after its line has been written (the file is complete the moment
// the response is on the wire).
type logSink struct {
	mu sync.Mutex
	w  io.Writer // not assumed concurrency-safe; mu serializes writes
}

// newLogSink returns a sink over w, or nil (a no-op sink) for nil w.
func newLogSink(w io.Writer) *logSink {
	if w == nil {
		return nil
	}
	return &logSink{w: w}
}

// append writes one preformatted line (terminator included).
func (s *logSink) append(line []byte) {
	if s == nil {
		return
	}
	s.mu.Lock()
	_, _ = s.w.Write(line)
	s.mu.Unlock()
}
