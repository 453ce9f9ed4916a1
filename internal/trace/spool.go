package trace

import (
	"sync"
	"sync/atomic"
)

// Spool moves the record stores of many Buffers off the goroutine that
// appends to them. A population run keeps one trace per flow: millions
// of records spread over hundreds of growing arrays, whose growth
// (allocate, zero, copy) and scattered stores would otherwise cost the
// engine goroutine about a third of its time while a second core sits
// idle. An attached Buffer's Append instead writes the record into a
// fixed-size batch; full batches go to one consumer goroutine, which
// makes the same appends on the buffers' records in the order they were
// produced. Each buffer therefore sees the same records at the same
// times, and its growth projection the same sizes, as with direct
// appends: the records and capacities are identical.
//
// The producer side (Attach, Append on an attached buffer, Drain) must
// stay on one goroutine; the consumer is internal. Reading an attached
// buffer (Records, Len) drains the spool first, so a reader never needs
// to know the buffer is spooled. The consumer goroutine runs only while
// handed-over batches remain to be applied: it exits after the last one,
// so a spool that is dropped, drained or not, leaves no goroutine behind.
//
// A single connection keeps direct appends: the runs that have many of
// them (the campaigns, the validation pass, the daemon's simulate jobs)
// already run one per core on a worker pool, where a consumer goroutine
// would only add hand-overs.
type Spool struct {
	sinks []*Buffer // records of the attached buffers, by sink index; the consumer appends to them
	cur   *spoolBatch

	// full carries filled batches to the consumer and free returns them
	// applied and empty. Both hold all spoolBatches batches, so neither
	// send blocks; the producer waits on free once all are out.
	full, free chan *spoolBatch
	// consumeFn is s.consume, bound once: a go statement on a method
	// value allocates a closure each time.
	consumeFn func()
	// queued counts batches handed over and not yet applied; the
	// consumer runs while it is positive.
	queued atomic.Int32
	// applied lets Drain wait for every handed-over batch.
	applied sync.WaitGroup
}

const (
	// spoolBatchLen is the number of records per batch (160 KiB): large
	// enough that a hand-over costs little per record, small enough that
	// a spool's batches take 1.25 MiB.
	spoolBatchLen = 4096
	// spoolBatches is the number of batches in rotation, allocated with
	// the spool, so a producer that outruns its consumer waits instead
	// of growing memory.
	spoolBatches = 8
)

// spoolRec is one spooled Append: the record's fields and the index of
// the sink it goes to, packed into the padding after the kind so an
// entry is the size of a Record. It holds no pointers, so a batch is
// never scanned by the garbage collector.
type spoolRec struct {
	t        float64
	k        Kind
	sink     uint32
	seq, ack uint64
	val      float64
}

type spoolBatch struct {
	n    int
	recs [spoolBatchLen]spoolRec
}

// NewSpool returns an empty spool with its batches allocated, so the
// producer never allocates.
func NewSpool() *Spool {
	s := &Spool{
		full: make(chan *spoolBatch, spoolBatches),
		free: make(chan *spoolBatch, spoolBatches),
	}
	for i := 0; i < spoolBatches; i++ {
		s.free <- new(spoolBatch)
	}
	s.consumeFn = s.consume
	return s
}

// Attach routes b's later appends through the spool. The records b holds
// and its stop time move to a sink buffer that only the consumer writes
// while appends are outstanding; b's Records, Len, Reset and SetStop act
// on that sink after draining the spool. A buffer attaches to at most
// one spool, once.
func (s *Spool) Attach(b *Buffer) {
	if b.spool != nil {
		panic("trace: buffer already attached to a spool")
	}
	s.Drain() // the consumer reads s.sinks
	s.sinks = append(s.sinks, &Buffer{recs: b.recs, stop: b.stop})
	b.recs, b.spool, b.sink = nil, s, uint32(len(s.sinks)-1)
}

// Drain hands over the batch being filled and returns once the consumer
// has applied every batch handed over: all records appended so far are
// then in their buffers.
func (s *Spool) Drain() {
	s.handOver()
	s.applied.Wait()
}

// add spools one Append to sink.
//
//pftk:hotpath
func (s *Spool) add(sink uint32, t float64, k Kind, seq, ack uint64, val float64) {
	c := s.cur
	if c == nil || c.n == spoolBatchLen {
		s.handOver()
		c = <-s.free
		s.cur = c
	}
	r := &c.recs[c.n]
	c.n++
	r.t, r.k, r.sink, r.seq, r.ack, r.val = t, k, sink, seq, ack, val
}

// handOver sends the batch being filled, if it holds anything, to the
// consumer, starting the consumer when it is not running.
func (s *Spool) handOver() {
	c := s.cur
	if c == nil || c.n == 0 {
		return
	}
	s.cur = nil
	s.applied.Add(1)
	if s.queued.Add(1) == 1 {
		//pftklint:ignore determinism a single consumer applies each buffer's appends in producer order, and the event order never reads a buffer
		go s.consumeFn()
	}
	s.full <- c
}

// consume applies handed-over batches until none is left to apply.
func (s *Spool) consume() {
	for {
		c := <-s.full
		for i := range c.recs[:c.n] {
			r := &c.recs[i]
			s.sinks[r.sink].Append(r.t, r.k, r.seq, r.ack, r.val)
		}
		c.n = 0
		s.free <- c
		s.applied.Done()
		if s.queued.Add(-1) == 0 {
			return
		}
	}
}
