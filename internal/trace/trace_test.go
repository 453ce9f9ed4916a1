package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"pftk/internal/proptest"
)

func sampleTrace() Trace {
	return Trace{
		{Time: 0.0, Kind: KindSend, Seq: 1},
		{Time: 0.1, Kind: KindSend, Seq: 2},
		{Time: 0.25, Kind: KindAck, Ack: 2, Val: 0.25},
		{Time: 0.25, Kind: KindCwndChange, Val: 2},
		{Time: 0.3, Kind: KindSend, Seq: 3},
		{Time: 0.3, Kind: KindSend, Seq: 4},
		{Time: 1.5, Kind: KindTimeoutFired, Val: 0},
		{Time: 1.5, Kind: KindRetransmit, Seq: 3, Val: 1},
		{Time: 1.9, Kind: KindAck, Ack: 5, Val: 0.4},
		{Time: 2.0, Kind: KindTDIndication},
		{Time: 2.1, Kind: KindRoundSample, Seq: 4, Val: 0.31},
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindSend: "send", KindRetransmit: "retx", KindAck: "ack",
		KindTDIndication: "td", KindTimeoutFired: "timeout",
		KindCwndChange: "cwnd", KindRoundSample: "round",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind %d String = %q, want %q", k, k.String(), s)
		}
		if !k.Valid() {
			t.Errorf("kind %v should be valid", k)
		}
	}
	if KindInvalid.Valid() || Kind(200).Valid() {
		t.Error("invalid kinds reported valid")
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind String should include numeric value")
	}
}

func TestRecordString(t *testing.T) {
	s := (Record{Time: 1.25, Kind: KindSend, Seq: 7}).String()
	if !strings.Contains(s, "send") || !strings.Contains(s, "seq=7") {
		t.Errorf("Record.String = %q", s)
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := sampleTrace()
	if d := tr.Duration(); d != 2.1 {
		t.Errorf("Duration = %g, want 2.1", d)
	}
	if (Trace{}).Duration() != 0 || (Trace{{Time: 5}}).Duration() != 0 {
		t.Error("degenerate durations should be 0")
	}
	if !tr.Sorted() {
		t.Error("sample should be sorted")
	}
	if got := tr.Count(KindSend); got != 4 {
		t.Errorf("Count(send) = %d, want 4", got)
	}
	if got := tr.PacketsSent(); got != 5 {
		t.Errorf("PacketsSent = %d, want 5 (4 sends + 1 retx)", got)
	}
	if got := len(tr.Kind(KindAck)); got != 2 {
		t.Errorf("Kind(ack) len = %d, want 2", got)
	}
	win := tr.Window(0.25, 1.5)
	if len(win) != 4 {
		t.Errorf("Window(0.25, 1.5) len = %d, want 4 (from-inclusive, to-exclusive)", len(win))
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTraceSort(t *testing.T) {
	tr := Trace{
		{Time: 2, Kind: KindSend, Seq: 3},
		{Time: 1, Kind: KindSend, Seq: 1},
		{Time: 1, Kind: KindSend, Seq: 2},
	}
	tr.Sort()
	if !tr.Sorted() {
		t.Fatal("not sorted after Sort")
	}
	// stability: the two t=1 records keep their relative order
	if tr[0].Seq != 1 || tr[1].Seq != 2 {
		t.Errorf("Sort not stable: %v", tr)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Trace{
		{{Time: 0, Kind: KindInvalid}},
		{{Time: -1, Kind: KindSend}},
		{{Time: 2, Kind: KindSend}, {Time: 1, Kind: KindSend}},
		{{Time: 0, Kind: Kind(99)}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != len(tr) {
		t.Fatalf("decoded %d records, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Errorf("record %d: %v != %v", i, got[i], tr[i])
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil); err != nil {
		t.Fatalf("Encode(empty): %v", err)
	}
	if buf.Len() != 8 {
		t.Errorf("empty trace should encode to just the 8-byte header, got %d bytes", buf.Len())
	}
	got, err := Decode(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("Decode(empty) = %v, %v", got, err)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := Decode(strings.NewReader("NOTATRACEFILE..."))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	_, err = Decode(strings.NewReader("abc"))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("short stream err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	_, err := Decode(bytes.NewReader(trunc))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated decode err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestCorruptKindRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Trace{{Time: 1, Kind: KindSend}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8+8] = 250 // kind byte of first record
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Error("corrupt kind should fail decode")
	}
}

func TestWriterRejectsInvalidKind(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Record{Kind: KindInvalid}); err == nil {
		t.Error("invalid kind should be rejected at write time")
	}
}

func TestWriterCount(t *testing.T) {
	w := NewWriter(io.Discard)
	for i := 0; i < 3; i++ {
		if err := w.Write(Record{Time: float64(i), Kind: KindSend}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d, want 3", w.Count())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, tr); err != nil {
		t.Fatalf("EncodeJSONL: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(tr) {
		t.Errorf("JSONL lines = %d, want %d", lines, len(tr))
	}
	got, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatalf("DecodeJSONL: %v", err)
	}
	if len(got) != len(tr) {
		t.Fatalf("decoded %d, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Errorf("record %d: %v != %v", i, got[i], tr[i])
		}
	}
}

func TestJSONLRejectsInvalidKind(t *testing.T) {
	if err := EncodeJSONL(io.Discard, Trace{{Kind: Kind(99)}}); err == nil {
		t.Error("encode should reject invalid kind")
	}
	if _, err := DecodeJSONL(strings.NewReader(`{"t":1,"k":99}` + "\n")); err == nil {
		t.Error("decode should reject invalid kind")
	}
}

func TestJSONLGarbage(t *testing.T) {
	if _, err := DecodeJSONL(strings.NewReader("{not json")); err == nil {
		t.Error("garbage should fail")
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(times []uint32, kinds []uint8, seqs []uint64, vals []float64) bool {
		n := len(times)
		for _, l := range []int{len(kinds), len(seqs), len(vals)} {
			if l < n {
				n = l
			}
		}
		tr := make(Trace, 0, n)
		tcur := 0.0
		for i := 0; i < n; i++ {
			tcur += float64(times[i]%1000) / 1000
			tr = append(tr, Record{
				Time: tcur,
				Kind: Kind(kinds[i]%uint8(kindMax-1)) + 1,
				Seq:  seqs[i],
				Ack:  seqs[i] / 2,
				Val:  vals[i],
			})
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || len(got) != len(tr) {
			return false
		}
		for i := range tr {
			if got[i] != tr[i] {
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 100)
}

func TestFilter(t *testing.T) {
	tr := sampleTrace()
	sends := tr.Filter(func(r Record) bool { return r.Kind == KindSend })
	if len(sends) != 4 {
		t.Errorf("filtered %d, want 4", len(sends))
	}
	none := tr.Filter(func(r Record) bool { return false })
	if none != nil {
		t.Errorf("empty filter should return nil, got %v", none)
	}
}
