package trace

import "math"

// Buffer batches record capture for the simulated TCP stack: a pre-grown
// record buffer with explicit growth, so the per-event hot path is a
// bounds check and a struct store. The simulator appends one record per
// wire event (send, retransmit, ACK) and per ground-truth indication; at
// the campaign scale of Table II that is millions of appends per run.
//
// A buffer that knows when its capture stops (SetStop) sizes each growth
// step from the run itself: it projects the final length from the record
// rate observed so far and allocates that plus 1/8 headroom, so a
// one-hour trace reaches its final size in one or two steps instead of a
// long series of doublings, each of which allocates, zeroes and copies
// the whole trace again. Without a usable stop time it doubles.
type Buffer struct {
	recs Trace
	stop float64 // capture end time; growth doubles unless stop is finite and ahead
}

// NewBuffer returns a buffer pre-grown to hold capacity records without
// reallocating. A non-positive capacity defers allocation to the first
// Append.
func NewBuffer(capacity int) *Buffer {
	b := &Buffer{}
	if capacity > 0 {
		b.recs = make(Trace, 0, capacity)
	}
	return b
}

// SetStop tells the buffer that capture ends at time t (the timebase of
// Record.Time), so growth can be sized from the record rate. A zero, past,
// NaN or infinite t leaves growth at plain doubling.
func (b *Buffer) SetStop(t float64) { b.stop = t }

// Append adds one record at the tail, growing the buffer only when full.
//
//pftk:hotpath
func (b *Buffer) Append(r Record) {
	if len(b.recs) == cap(b.recs) {
		b.grow(r.Time)
	}
	//pftklint:ignore hotalloc grow above guarantees spare capacity; this append never reallocates
	b.recs = append(b.recs, r)
}

// grow reallocates the full buffer (cold path; Append calls it only when
// the buffer is full). now is the time of the record being appended.
func (b *Buffer) grow(now float64) {
	n := cap(b.recs)
	newCap := 2 * n
	if want, ok := b.projectedCap(now); ok {
		newCap = want
	}
	if newCap < 256 {
		newCap = 256
	}
	recs := make(Trace, len(b.recs), newCap)
	copy(recs, b.recs)
	b.recs = recs
}

// maxProjectedCap bounds a projection (2^31 records is 80 GiB of trace):
// beyond it the buffer doubles rather than trust the extrapolation.
const maxProjectedCap = 1 << 31

// projectedCap extrapolates the records captured so far, at their
// observed rate, to the stop time and adds 1/8 headroom, never growing by
// less than 1.25x. It reports false when there is no rate to extrapolate
// (empty buffer, no elapsed time) or no finite stop time ahead of now.
func (b *Buffer) projectedCap(now float64) (int, bool) {
	n := len(b.recs)
	if n == 0 || !(b.stop > now) || math.IsInf(b.stop, 1) {
		return 0, false
	}
	elapsed := now - b.recs[0].Time
	if !(elapsed > 0) {
		return 0, false
	}
	final := float64(n) * (1 + (b.stop-now)/elapsed)
	want := final + final/8
	if !(want < maxProjectedCap) {
		return 0, false
	}
	floor := cap(b.recs) + cap(b.recs)/4
	if int(want) < floor {
		return floor, true
	}
	return int(want), true
}

// Len returns the number of buffered records.
func (b *Buffer) Len() int { return len(b.recs) }

// Records returns the buffered records as a Trace. The slice is owned by
// the buffer — copy before mutating or before the next Append.
func (b *Buffer) Records() Trace { return b.recs }

// Reset empties the buffer, keeping its capacity and stop time for reuse.
func (b *Buffer) Reset() { b.recs = b.recs[:0] }
