package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/program"
)

func TestBinaryRoundTrip(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Proc: 0},
		{Proc: 3, Extent: 700, Repeat: 9},
		{Proc: 1, Extent: 5},
	}}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Errorf("round trip mismatch: %v vs %v", got.Events, tr.Events)
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("XXXX\x00")); err == nil {
		t.Error("ReadBinary accepted bad magic")
	}
	if _, err := ReadBinary(strings.NewReader("RT")); err == nil {
		t.Error("ReadBinary accepted truncated magic")
	}
}

func TestBinaryRejectsTruncated(t *testing.T) {
	tr := &Trace{Events: []Event{{Proc: 1}, {Proc: 2}}}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Error("ReadBinary accepted truncated stream")
	}
}

func TestTextRoundTrip(t *testing.T) {
	prog := testProg(t)
	tr := &Trace{Events: []Event{
		{Proc: 0},
		{Proc: 3, Extent: 700, Repeat: 9},
		{Proc: 1, Extent: 5},
	}}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf, prog); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Errorf("round trip mismatch: %v vs %v", got.Events, tr.Events)
	}
}

func TestReadTextHandlesCommentsAndBlanks(t *testing.T) {
	prog := testProg(t)
	in := "# header\n\nM\n  X 64 \n# trailing\n"
	tr, err := ReadText(strings.NewReader(in), prog)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.Events[0].Proc != 0 || tr.Events[1].Extent != 64 {
		t.Errorf("parsed %v", tr.Events)
	}
}

func TestReadTextErrors(t *testing.T) {
	prog := testProg(t)
	bad := []string{
		"Nope\n",
		"M abc\n",
		"M 1 abc\n",
		"M 1 2 3\n",
	}
	for _, in := range bad {
		if _, err := ReadText(strings.NewReader(in), prog); err == nil {
			t.Errorf("ReadText(%q) succeeded, want error", in)
		}
	}
}

// rawTrace hand-assembles a binary trace from uvarint values so tests can
// craft field values the writer itself refuses to produce.
func rawTrace(count uint64, fields ...uint64) []byte {
	out := []byte(binaryMagic)
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], count)
	out = append(out, buf[:n]...)
	for _, v := range fields {
		n := binary.PutUvarint(buf[:], v)
		out = append(out, buf[:n]...)
	}
	return out
}

func TestBinaryRejectsOutOfRangeFields(t *testing.T) {
	big := uint64(math.MaxInt32) + 1
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"proc", rawTrace(1, big, 0, 0), "procedure id"},
		{"extent", rawTrace(1, 7, big, 0), "extent"},
		{"repeat", rawTrace(1, 7, 0, big), "repeat"},
		{"wrapped proc", rawTrace(1, math.MaxUint64, 0, 0), "procedure id"},
	}
	for _, c := range cases {
		_, err := ReadBinary(bytes.NewReader(c.raw))
		if err == nil {
			t.Errorf("%s: out-of-range value accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "event 0") {
			t.Errorf("%s: error %q does not name the field and event position", c.name, err)
		}
	}
}

func TestBinaryErrorNamesEventPosition(t *testing.T) {
	// Two valid events, then an extent beyond int32: the error must point
	// at event 2, not at the start of the stream.
	raw := rawTrace(3, 1, 0, 0, 2, 0, 0, 3, uint64(math.MaxInt32)+5, 0)
	_, err := ReadBinary(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "event 2") {
		t.Errorf("error %v, want one positioned at event 2", err)
	}
}

func TestBinaryRejectsHugeDeclaredCount(t *testing.T) {
	// Counts beyond MaxDeclaredEvents fail at the header.
	if _, err := ReadBinary(bytes.NewReader(rawTrace(MaxDeclaredEvents + 1))); err == nil {
		t.Error("ReadBinary accepted a count beyond MaxDeclaredEvents")
	}
	// A count that passes the header bound but lies about the body must
	// fail at the first missing event without allocating count events
	// up front (the allocation hint is capped at maxPreallocEvents).
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(rawTrace(MaxDeclaredEvents, 1, 0, 0)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("ReadBinary accepted a lying header over a tiny body")
	}
	const eventSize = uint64(unsafe.Sizeof(Event{}))
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*maxPreallocEvents*eventSize {
		t.Errorf("lying header allocated %d bytes; prealloc cap not applied", grew)
	}
}

func TestStreamSentinelIsNotASizeHint(t *testing.T) {
	// A streamed header (sentinel count) over an empty body parses as an
	// empty trace; the sentinel must never be interpreted as a size hint
	// or as a count of expected events.
	tr, err := ReadBinary(bytes.NewReader(rawTrace(streamSentinel)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || cap(tr.Events) != 0 {
		t.Errorf("sentinel trace: len %d cap %d, want 0/0", tr.Len(), cap(tr.Events))
	}
	// Near-sentinel counts are not the sentinel and exceed the bound.
	if _, err := ReadBinary(bytes.NewReader(rawTrace(streamSentinel - 1))); err == nil {
		t.Error("ReadBinary accepted a near-sentinel count as a real header")
	}
}

func TestWriteBinaryRejectsNegativeFields(t *testing.T) {
	for _, tr := range []*Trace{
		{Events: []Event{{Proc: -1}}},
		{Events: []Event{{Proc: 1, Extent: -2}}},
		{Events: []Event{{Proc: 1, Repeat: -3}}},
	} {
		if err := tr.WriteBinary(&bytes.Buffer{}); err == nil {
			t.Errorf("WriteBinary accepted negative field %+v", tr.Events[0])
		}
	}
}

func TestReadTextRejectsNegativeValues(t *testing.T) {
	prog := testProg(t)
	for _, in := range []string{"M -1\n", "M 1 -2\n"} {
		if _, err := ReadText(strings.NewReader(in), prog); err == nil {
			t.Errorf("ReadText(%q) succeeded, want error", in)
		}
	}
}

// Property: binary round trip preserves arbitrary valid traces.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		tr := &Trace{Events: make([]Event, n)}
		for i := range tr.Events {
			tr.Events[i] = Event{
				Proc:   program.ProcID(rng.Intn(5000)),
				Extent: int32(rng.Intn(1 << 20)),
				Repeat: int32(rng.Intn(1000)),
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
