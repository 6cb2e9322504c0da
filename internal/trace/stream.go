package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/program"
)

// The counted binary format carries the event count up front, which a
// streaming producer on a plain io.Writer cannot patch after the fact.
// Streams therefore declare a count of streamSentinel, meaning "events
// until EOF"; Reader recognizes it and switches to streaming mode. The
// sentinel is far above MaxDeclaredEvents, so it can never be confused
// with (or abused as) a real count or allocation hint.
const streamSentinel = ^uint64(0) >> 1 // large, never a real count

// MaxDeclaredEvents bounds the event count a counted header may declare,
// so it is the most events a counted trace file can hold; larger counts
// are rejected before any allocation or decoding happens.
const MaxDeclaredEvents = 1 << 30

// maxPreallocEvents caps how many events ReadAll preallocates from the
// declared header count. A corrupt or adversarial header may declare up to
// MaxDeclaredEvents while the body holds almost nothing; decoding fails at
// the first missing event, but only if the size hint did not already
// trigger a giant up-front allocation. Preallocation beyond this cap costs
// one more append-regrowth sequence and nothing else.
const maxPreallocEvents = 1 << 20

// Writer streams events in the binary interchange format, buffering
// nothing beyond a bufio.Writer. The first Write error is sticky: every
// later Write, Flush, and Close reports it. Finish a stream with Close (or
// Flush); both flush buffered output and report the sticky error, Close is
// simply the conventional name callers propagate.
type Writer struct {
	bw  *bufio.Writer
	err error
	n   int64
}

// NewWriter starts a streaming trace on w. The stream is readable both by
// Reader and by ReadBinary.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], streamSentinel)
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, err
	}
	return &Writer{bw: bw}, nil
}

// Write appends one event. Events must satisfy the same range rules the
// reader enforces (non-negative Proc/Extent/Repeat); writing a negative
// field would encode a huge uvarint the reader rejects.
func (w *Writer) Write(e Event) error {
	if w.err != nil {
		return w.err
	}
	if e.Proc < 0 || e.Extent < 0 || e.Repeat < 0 {
		return fmt.Errorf("trace: event %d has negative field %+v", w.n, e)
	}
	var buf [binary.MaxVarintLen64]byte
	for _, v := range [3]uint64{uint64(e.Proc), uint64(e.Extent), uint64(e.Repeat)} {
		n := binary.PutUvarint(buf[:], v)
		if _, err := w.bw.Write(buf[:n]); err != nil {
			w.err = err
			return err
		}
	}
	w.n++
	return nil
}

// Count returns the number of events written so far.
func (w *Writer) Count() int64 { return w.n }

// Flush flushes buffered output without ending the stream; the writer
// remains usable.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Close completes the stream: it flushes buffered output and reports the
// sticky error of any earlier Write or Flush. It does not close the
// underlying io.Writer (the Writer did not open it). Close is idempotent —
// a second call reports the same outcome.
func (w *Writer) Close() error { return w.Flush() }

// Reader consumes a binary trace incrementally.
type Reader struct {
	br        *bufio.Reader
	remaining uint64
	streaming bool
	// index counts fully decoded events, so malformed-field errors can
	// name the exact event position in a multi-GB stream.
	index int64
}

// NewReader parses the header and prepares to stream events. Counted
// headers declaring more than MaxDeclaredEvents (and any count at or above
// the streaming sentinel that is not exactly the sentinel) are rejected
// here, before any allocation.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading event count: %w", err)
	}
	if n != streamSentinel && n > MaxDeclaredEvents {
		return nil, fmt.Errorf("trace: event count %d too large", n)
	}
	return &Reader{br: br, remaining: n, streaming: n == streamSentinel}, nil
}

// Next returns the next event, or io.EOF when the stream ends. Decoded
// fields are range-checked before the narrowing to int32: a corrupt or
// adversarial varint must fail with a positioned error, not silently
// truncate to a negative or wrapped value.
func (r *Reader) Next() (Event, error) {
	if !r.streaming && r.remaining == 0 {
		return Event{}, io.EOF
	}
	p, err := binary.ReadUvarint(r.br)
	if err != nil {
		if r.streaming && err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("trace: event %d: reading proc: %w", r.index, err)
	}
	if p > math.MaxInt32 {
		return Event{}, fmt.Errorf("trace: event %d: procedure id %d out of range", r.index, p)
	}
	ext, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Event{}, fmt.Errorf("trace: event %d: reading extent: %w", r.index, err)
	}
	if ext > math.MaxInt32 {
		return Event{}, fmt.Errorf("trace: event %d: extent %d out of range", r.index, ext)
	}
	rep, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Event{}, fmt.Errorf("trace: event %d: reading repeat: %w", r.index, err)
	}
	if rep > math.MaxInt32 {
		return Event{}, fmt.Errorf("trace: event %d: repeat %d out of range", r.index, rep)
	}
	if !r.streaming {
		r.remaining--
	}
	r.index++
	return Event{
		Proc:   program.ProcID(p),
		Extent: int32(ext),
		Repeat: int32(rep),
	}, nil
}

// ReadAll drains the reader into an in-memory Trace. The declared count of
// a counted trace is used only as a capped allocation hint
// (maxPreallocEvents): a lying header cannot trigger a giant allocation,
// it merely fails at the first event the body does not actually hold.
func (r *Reader) ReadAll() (*Trace, error) {
	t := &Trace{}
	if !r.streaming && r.remaining > 0 {
		t.Events = make([]Event, 0, min(r.remaining, maxPreallocEvents))
	}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Append(e)
	}
}
