package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary format
//
//	header: 8-byte magic "PFTKTRC\x01"
//	records: 33 bytes each, little endian:
//	    float64 Time | uint8 Kind | uint64 Seq | uint64 Ack | float64 Val
//
// Every record has the same width, so record i starts at 8 + 33*i.

var magic = [8]byte{'P', 'F', 'T', 'K', 'T', 'R', 'C', 1}

const recordSize = 8 + 1 + 8 + 8 + 8

// ErrBadMagic is returned when a binary stream does not start with the
// trace file magic.
var ErrBadMagic = errors.New("trace: bad magic (not a PFTK trace file)")

// Writer streams records to an io.Writer in the binary format.
type Writer struct {
	w       *bufio.Writer
	started bool
	n       int
	buf     [recordSize]byte
}

// NewWriter returns a Writer emitting to w. The header is written lazily
// on the first record (or on Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) writeHeader() error {
	if w.started {
		return nil
	}
	w.started = true
	_, err := w.w.Write(magic[:])
	return err
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if !r.Kind.Valid() {
		return fmt.Errorf("trace: refusing to write record with invalid kind %d", r.Kind)
	}
	if err := w.writeHeader(); err != nil {
		return err
	}
	b := w.buf[:]
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.Time))
	b[8] = byte(r.Kind)
	binary.LittleEndian.PutUint64(b[9:], r.Seq)
	binary.LittleEndian.PutUint64(b[17:], r.Ack)
	binary.LittleEndian.PutUint64(b[25:], math.Float64bits(r.Val))
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.n++
	return nil
}

// WriteAll appends every record of t.
func (w *Writer) WriteAll(t Trace) error {
	for _, r := range t {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return w.n }

// Flush writes the header (if no record forced it yet) and flushes
// buffered data to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader decodes records from a binary trace stream.
type Reader struct {
	r       *bufio.Reader
	started bool
	buf     [recordSize]byte
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (r *Reader) readHeader() error {
	if r.started {
		return nil
	}
	r.started = true
	var got [8]byte
	if _, err := io.ReadFull(r.r, got[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return ErrBadMagic
		}
		return err
	}
	if got != magic {
		return ErrBadMagic
	}
	return nil
}

// Read returns the next record, or io.EOF at a clean end of stream. A
// truncated trailing record yields io.ErrUnexpectedEOF.
func (r *Reader) Read() (Record, error) {
	if err := r.readHeader(); err != nil {
		return Record{}, err
	}
	b := r.buf[:]
	if _, err := io.ReadFull(r.r, b); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	rec := Record{
		Time: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		Kind: Kind(b[8]),
		Seq:  binary.LittleEndian.Uint64(b[9:]),
		Ack:  binary.LittleEndian.Uint64(b[17:]),
		Val:  math.Float64frombits(binary.LittleEndian.Uint64(b[25:])),
	}
	if !rec.Kind.Valid() {
		return Record{}, fmt.Errorf("trace: corrupt record kind %d", rec.Kind)
	}
	return rec, nil
}

// ReadAll decodes the remainder of the stream into a Trace.
func (r *Reader) ReadAll() (Trace, error) {
	var t Trace
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return t, nil
		}
		if err != nil {
			return t, err
		}
		t = append(t, rec)
	}
}

// Encode writes t to w in the binary format.
func Encode(w io.Writer, t Trace) error {
	tw := NewWriter(w)
	if err := tw.WriteAll(t); err != nil {
		return err
	}
	return tw.Flush()
}

// Decode reads a complete binary trace from r.
func Decode(r io.Reader) (Trace, error) {
	return NewReader(r).ReadAll()
}

// EncodeJSONL writes t as one JSON object per line — the interoperable
// format for feeding traces to external plotting tools.
func EncodeJSONL(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, r := range t {
		if !r.Kind.Valid() {
			return fmt.Errorf("trace: record %d has invalid kind %d", i, r.Kind)
		}
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeJSONL reads a JSON-lines trace from r.
func DecodeJSONL(r io.Reader) (Trace, error) {
	dec := json.NewDecoder(r)
	var t Trace
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return t, nil
			}
			return t, err
		}
		if !rec.Kind.Valid() {
			return t, fmt.Errorf("trace: record %d has invalid kind %d", len(t), rec.Kind)
		}
		t = append(t, rec)
	}
}
