package trace

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/program"
)

// Fuzz targets: the codecs must never panic on corrupt input, and anything
// they accept must re-serialize cleanly. Run with `go test -fuzz=FuzzReadBinary`
// for continuous fuzzing; the seed corpus below runs under plain `go test`.

func FuzzReadBinary(f *testing.F) {
	// Seeds: a valid trace, a truncated one, junk.
	var buf bytes.Buffer
	tr := &Trace{Events: []Event{{Proc: 1, Extent: 100, Repeat: 2}, {Proc: 300}}}
	if err := tr.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add([]byte("RTR1"))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	// Out-of-int32-range varints (the silent-truncation regression) and
	// lying headers over tiny bodies.
	f.Add(rawTrace(1, uint64(math.MaxInt32)+1, 0, 0))
	f.Add(rawTrace(1, 7, uint64(math.MaxInt32)+1, 0))
	f.Add(rawTrace(1, 7, 0, math.MaxUint64))
	f.Add(rawTrace(MaxDeclaredEvents, 1, 0, 0))
	f.Add(rawTrace(streamSentinel, 3, 10, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever the decoder accepts must be in range: decoding must
		// never narrow a varint into a negative int32.
		for i, e := range got.Events {
			if e.Proc < 0 || e.Extent < 0 || e.Repeat < 0 {
				t.Fatalf("event %d decoded with negative field: %+v", i, e)
			}
		}
		// Whatever parses must round trip.
		var out bytes.Buffer
		if err := got.WriteBinary(&out); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if back.Len() != got.Len() {
			t.Fatalf("round trip changed length %d -> %d", got.Len(), back.Len())
		}
	})
}

func FuzzReadText(f *testing.F) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 100},
		{Name: "b", Size: 200},
	})
	f.Add("a\nb 10\na 5 2\n")
	f.Add("# comment\n\n")
	f.Add("a 99999999999999999999\n")
	f.Add("unknown\n")
	f.Add("a 1 2 3 4\n")

	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadText(bytes.NewReader([]byte(data)), prog)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteText(&out, prog); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		if _, err := ReadText(&out, prog); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
	})
}
