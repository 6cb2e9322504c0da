package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/program"
)

func TestStreamWriteRead(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Proc: 0},
		{Proc: 7, Extent: 100, Repeat: 3},
		{Proc: 2, Extent: 5},
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Errorf("event %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after stream end: %v, want EOF", err)
	}
}

func TestStreamedTraceReadableByReadBinary(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Write(Event{Proc: program.ProcID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 10 {
		t.Errorf("Len = %d, want 10", tr.Len())
	}
}

func TestReaderHandlesCountedTraces(t *testing.T) {
	tr := &Trace{Events: []Event{{Proc: 1}, {Proc: 2}}}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("Len = %d", got.Len())
	}
}

func TestStreamTruncationMidEvent(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Proc: 300, Extent: 5000}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated mid-event: %v, want a real error", err)
	}
}

// failAfter is an io.Writer that errors once limit bytes have been taken.
type failAfter struct {
	limit int
	n     int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		take := f.limit - f.n
		f.n = f.limit
		return take, errors.New("disk full")
	}
	f.n += len(p)
	return len(p), nil
}

func TestWriterCloseFlushes(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Proc: 5, Extent: 9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Events[0].Proc != 5 {
		t.Errorf("read back %+v", tr.Events)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestWriterCloseReportsStickyError(t *testing.T) {
	// The sink accepts the header, then fails; the buffered events only
	// hit it at Close, which must surface the failure — and keep doing so
	// on repeat calls.
	w, err := NewWriter(&failAfter{limit: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Write(Event{Proc: 1, Extent: 500}); err != nil {
			break
		}
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the write failure")
	}
	if err := w.Close(); err == nil {
		t.Error("second Close lost the sticky error")
	}
}

func TestWriterRejectsNegativeFields(t *testing.T) {
	w, err := NewWriter(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Proc: -1}); err == nil {
		t.Error("Write accepted a negative proc")
	}
	// A rejected event is not sticky: valid events still stream.
	if err := w.Write(Event{Proc: 1}); err != nil {
		t.Errorf("valid event after rejected one: %v", err)
	}
	if w.Count() != 1 {
		t.Errorf("Count = %d, want 1", w.Count())
	}
}

// Property: streamed writes round trip through the incremental reader.
func TestStreamRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100)
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{
				Proc:   program.ProcID(rng.Intn(1000)),
				Extent: int32(rng.Intn(1 << 16)),
				Repeat: int32(rng.Intn(100)),
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, e := range events {
			if w.Write(e) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range events {
			got, err := r.Next()
			if err != nil || got != want {
				return false
			}
		}
		_, err = r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A long trace crosses many ends of the reader's buffer, so some events
// straddle one; read whole or a byte or half a buffer at a time, every
// event decodes as written. A field out of range deep in such a stream,
// or one cut off by its end, still fails naming its event.
func TestReaderAcrossBufferEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var fields []uint64
	for i := 0; i < 5000; i++ {
		for f := 0; f < 3; f++ {
			fields = append(fields, uint64(rng.Int63n(1<<uint(rng.Intn(32)))))
		}
	}
	raw := rawTrace(5000, fields...)
	want := make([]Event, 5000)
	for i := range want {
		want[i] = Event{Proc: program.ProcID(fields[3*i]), Extent: int32(fields[3*i+1]), Repeat: int32(fields[3*i+2])}
	}
	readers := func(b []byte) map[string]io.Reader {
		return map[string]io.Reader{
			"whole": bytes.NewReader(b),
			"byte":  iotest.OneByteReader(bytes.NewReader(b)),
			"half":  iotest.HalfReader(bytes.NewReader(b)),
		}
	}
	for name, r := range readers(raw) {
		got, err := ReadBinary(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Events, want) {
			t.Fatalf("%s: decoded events differ from the written ones", name)
		}
	}

	bad := append([]uint64(nil), fields...)
	bad[3*4321+1] = uint64(math.MaxInt32) + 1
	cut := rawTrace(5000, fields[:3*4000+1]...)
	for name, c := range map[string]struct {
		raw  []byte
		want string
	}{
		"extent out of range": {rawTrace(5000, bad...), "event 4321: extent"},
		"cut after a proc":    {cut, "event 4000: reading extent"},
	} {
		for rname, r := range readers(c.raw) {
			if _, err := ReadBinary(r); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, read %s: error %v, want one naming %q", name, rname, err, c.want)
			}
		}
	}
}
