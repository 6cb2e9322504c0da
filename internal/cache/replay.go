package cache

import (
	"fmt"

	"repro/internal/program"
	"repro/internal/trace"
)

// CompiledTrace is a trace precompiled for replay: the effective extent and
// repeat count of every activation resolved once against one program and
// stored in flat arrays. The resolution (Extent 0 → full procedure size,
// extents clamped to the procedure, Repeat 0 → 1) is exactly what
// trace.Event.ExtentBytes/Repeats compute per reference in the general
// loop; compiling hoists it out of the replay entirely.
//
// A compiled trace depends only on the (program, trace) pair — never on a
// layout — so one compilation is shared across every layout that replays
// the trace. That is the shape of the paper's evaluation: the Section 5.1
// perturbation sweeps and the Figure 5/6 grids replay the same
// multi-million-reference trace against hundreds of candidate layouts.
//
// A CompiledTrace is immutable after CompileTrace returns and is safe for
// concurrent use by any number of simulators.
type CompiledTrace struct {
	prog *program.Program
	src  *trace.Trace
	n    int
	// Flat per-event arrays: procs[i], exts[i] (effective extent in bytes,
	// ≥ 1) and reps[i] (effective repeat count, ≥ 1) describe event i.
	procs []program.ProcID
	exts  []int32
	reps  []int32
	// classOf[i] names event i's activation class — its (proc, effective
	// extent) pair, deduplicated in first-appearance order. Everything a
	// replay derives from an event besides its repeat count (placed line
	// span, conflict-freedom) is a function of the class alone, so a layout
	// compiled against the classes (CompileLayout) answers those questions
	// with two array loads per event. Slices share the class table, so
	// tables compiled against the full trace serve every window of it.
	classOf []int32
	classes *classTable
}

// classTable is the deduplicated (proc, effective extent) universe of one
// compilation. It is shared by pointer across every Slice of the
// compilation, so pointer identity decides whether a CompiledLayout built
// for one view is valid for another.
type classTable struct {
	proc []program.ProcID
	ext  []int32
}

// CompileTrace precompiles tr for replay against layouts of prog. The
// events must reference valid procedures of prog (trace.Trace.Validate);
// out-of-range extents are clamped exactly as the general loop clamps
// them.
func CompileTrace(prog *program.Program, tr *trace.Trace) *CompiledTrace {
	n := len(tr.Events)
	ct := &CompiledTrace{
		prog:  prog,
		src:   tr,
		n:     n,
		procs: make([]program.ProcID, n),
		exts:  make([]int32, n),
		reps:  make([]int32, n),
	}
	ct.classOf = make([]int32, n)
	ct.classes = &classTable{}
	// Class IDs are assigned in first-appearance order — a deterministic
	// function of the trace, independent of map iteration.
	seen := make(map[int64]int32, 64)
	for i, e := range tr.Events {
		ct.procs[i] = e.Proc
		ct.exts[i] = int32(e.ExtentBytes(prog))
		ct.reps[i] = int32(e.Repeats())
		key := int64(ct.procs[i])<<32 | int64(ct.exts[i])
		id, ok := seen[key]
		if !ok {
			id = int32(len(ct.classes.proc))
			seen[key] = id
			ct.classes.proc = append(ct.classes.proc, ct.procs[i])
			ct.classes.ext = append(ct.classes.ext, ct.exts[i])
		}
		ct.classOf[i] = id
	}
	return ct
}

// NumClasses returns the number of distinct activation classes — (proc,
// effective extent) pairs — in the compilation. Slices report the full
// compilation's class count, since they share its table.
func (ct *CompiledTrace) NumClasses() int { return len(ct.classes.proc) }

// Program returns the program the trace was compiled against.
func (ct *CompiledTrace) Program() *program.Program { return ct.prog }

// Len returns the number of activations.
func (ct *CompiledTrace) Len() int { return ct.n }

// Slice returns a view of activations [lo, hi) sharing the compilation's
// flat arrays — no per-event work is repeated. This is the unit of the
// sampled evaluation path (internal/sample): one full-trace compilation is
// sliced into warm-up and measurement windows that replay independently.
// The slice does not memoize as a whole-trace compilation (Sim.RunTrace
// will recompile rather than mistake a window for its source trace).
func (ct *CompiledTrace) Slice(lo, hi int) *CompiledTrace {
	if lo < 0 || hi > ct.n || lo > hi {
		panic(fmt.Sprintf("cache: compiled trace slice [%d:%d) out of range [0:%d)", lo, hi, ct.n))
	}
	return &CompiledTrace{
		prog:    ct.prog,
		n:       hi - lo,
		procs:   ct.procs[lo:hi],
		exts:    ct.exts[lo:hi],
		reps:    ct.reps[lo:hi],
		classOf: ct.classOf[lo:hi],
		classes: ct.classes,
	}
}

// matches reports whether ct is the compilation of (prog, tr) in its
// current length. Simulators use it to memoize compilation across repeated
// RunTrace calls with the same trace; the length guard catches a trace
// that grew via Append between calls (in-place mutation of existing events
// is not detected — recompile explicitly after editing a trace).
func (ct *CompiledTrace) matches(prog *program.Program, tr *trace.Trace) bool {
	return ct != nil && ct.prog == prog && ct.src == tr && ct.n == len(tr.Events)
}

// checkProgram panics unless layout places the compiled program: replaying
// a trace compiled for one program against another program's layout is a
// programming error, not a runtime condition.
func (ct *CompiledTrace) checkProgram(layout *program.Layout) {
	if ct.prog != layout.Program() {
		panic(fmt.Sprintf("cache: compiled trace for program %p replayed against layout of program %p",
			ct.prog, layout.Program()))
	}
}

// ReplayStats counts how the compiled replay engine processed a run:
// how many activations took the O(span) collapsed path versus the general
// O(repeats·span) loop, and how much work collapsing saved. The counters
// are observability only — they never influence the simulated Stats — and
// are deterministic for a given (trace, layout, geometry), so telemetry
// built from them merges identically at any worker count.
type ReplayStats struct {
	// Events is the number of activations replayed.
	Events int64
	// FastEvents counts activations fully handled by a fast path: repeat
	// collapsing in the cache engines, the MRU short-circuit in the TLB
	// engine.
	FastEvents int64
	// FallbackEvents counts activations with work the fast path could not
	// absorb (repeats replayed by the general loop because the activation
	// span self-conflicts in the simulated geometry).
	FallbackEvents int64
	// CollapsedRepeats is the total number of repeat iterations accounted
	// in O(1) instead of being replayed.
	CollapsedRepeats int64
	// CollapsedRefs is the number of line references those collapsed
	// iterations contributed to Stats.Refs without touching cache state.
	CollapsedRefs int64
}

// replayStats returns the counters of a cache walk of ct against tab. An
// activation with repeats collapses exactly when its placed span is
// self-conflict-free, so the counters follow from the compiled layout and
// the repeat counts alone, in one pass over the trace.
func replayStats(ct *CompiledTrace, tab *CompiledLayout) ReplayStats {
	rs := ReplayStats{Events: int64(ct.n)}
	for i, c := range ct.classOf {
		r := int64(ct.reps[i])
		if r == 1 {
			continue
		}
		if tab.free[c] {
			rs.FastEvents++
			rs.CollapsedRepeats += r - 1
			rs.CollapsedRefs += (r - 1) * tab.span[c]
		} else {
			rs.FallbackEvents++
		}
	}
	return rs
}

// Add merges other into r.
func (r *ReplayStats) Add(other ReplayStats) {
	r.Events += other.Events
	r.FastEvents += other.FastEvents
	r.FallbackEvents += other.FallbackEvents
	r.CollapsedRepeats += other.CollapsedRepeats
	r.CollapsedRefs += other.CollapsedRefs
}
