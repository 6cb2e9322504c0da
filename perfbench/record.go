package main

import (
	"fmt"
	"syscall"
	"time"
)

// layerSpans names every layer call the benchmark wraps in a span, as
// <layer>.<call>. Each becomes the per-layer metric <name>_s, the call's
// self CPU seconds per pass.
var layerSpans = []string{
	"trace.decode",
	"popular.select",
	"wcg.build",
	"trg.build",
	"invariant.check_trg",
	"invariant.check_layout",
	"core.place",
	"baseline.ph",
	"baseline.hkc",
	"perturb.graph",
	"cache.compile_trace",
	"cache.compile_layout",
	"cache.replay",
	"cache.batch_dm",
	"cache.batch_lru",
	"sample.plan",
	"sample.estimate",
	"optimal.search",
}

// passSpan is the root span of one traced pass; its self time is the
// pass's CPU time that no layer span covers.
const passSpan = "pass"

// span is one timed call. Times are nanoseconds: wall time since the run
// started and process CPU time (user+sys of every thread).
type span struct {
	Name      string `json:"name"`
	Parent    int    `json:"parent"`
	Op        int    `json:"op"`
	WallStart int64  `json:"wall_start_ns"`
	WallEnd   int64  `json:"wall_end_ns"`
	CPUStart  int64  `json:"cpu_start_ns"`
	CPUEnd    int64  `json:"cpu_end_ns"`
}

func (s span) cpu() int64 { return s.CPUEnd - s.CPUStart }

// tracer keeps the spans of a traced run in memory. Spans nest: one opened
// while another is open is its child. The benchmark drives every layer from
// one goroutine, so the open spans form a stack.
type tracer struct {
	start time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) begin(name string, op int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Op: op,
		WallStart: int64(time.Since(t.start)), CPUStart: cpuNanos(),
	})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d ended out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].CPUEnd = cpuNanos()
	t.spans[id].WallEnd = int64(time.Since(t.start))
}

// selfCPU sums the self CPU seconds of spans by name. A span's self time
// is its CPU time minus that of its direct children; parents index into
// the same slice (a parent outside it, or -1, is ignored).
func selfCPU(spans []span, base int) map[string]float64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.cpu()
		if p := s.Parent - base; s.Parent >= 0 && p >= 0 && p < len(spans) {
			self[p] -= s.cpu()
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// cpuNanos is the process's user+sys CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// pass records one pass of a workload: the operations it attempted and
// failed, the outputs it checked, the quality of its GBSC layouts, the
// layers' work counts and, on a traced pass, its spans.
type pass struct {
	tr     *tracer            // nil on an untraced pass
	expect map[string]float64 // expected outputs; nil when the seed has none

	op        int // current operation id, 0 outside an operation
	attempted int
	bad       map[int]bool // failed operation ids
	errs      []string

	got    map[string]float64
	counts map[string]int64

	// Refs-weighted miss rate and padding of the pass's GBSC layouts.
	refs, misses        int64
	gapBytes, progBytes int64
	// Summed |sampled − exact| direct-mapped miss rates, in percentage
	// points, over sampleN estimates.
	sampleErrPP float64
	sampleN     int
}

func newPass(tr *tracer, expect map[string]float64) *pass {
	return &pass{tr: tr, expect: expect, bad: map[int]bool{}, got: map[string]float64{}, counts: map[string]int64{}}
}

// do runs one operation and returns its id. An error from it, a layer's
// or a failed check's, counts as a failed operation; the pass goes on.
func (p *pass) do(fn func() error) int {
	p.attempted++
	p.op = p.attempted
	p.fail(p.op, fn())
	p.op = 0
	return p.attempted
}

// fail marks operation op failed when err is not nil. An operation fails
// at most once, however many of its checks fail.
func (p *pass) fail(op int, err error) {
	if err == nil || p.bad[op] {
		return
	}
	p.bad[op] = true
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf("op %d: %v", op, err))
	}
}

func (p *pass) failed() int { return len(p.bad) }

// begin opens a span around a layer call; end closes it. Both do nothing
// on an untraced pass.
func (p *pass) begin(name string) int {
	if p.tr == nil {
		return -1
	}
	return p.tr.begin(name, p.op)
}

func (p *pass) end(id int) {
	if p.tr != nil {
		p.tr.end(id)
	}
}

// output records a checked output and compares it with the expected
// results, when the seed has them.
func (p *pass) output(key string, v float64) error {
	p.got[key] = v
	if p.expect == nil {
		return nil
	}
	want, ok := p.expect[key]
	if !ok {
		return fmt.Errorf("%s: no expected value", key)
	}
	if v != want {
		return fmt.Errorf("%s = %v, expected %v", key, v, want)
	}
	return nil
}

func (p *pass) count(name string, n int64) { p.counts[name] += n }
