package cache

import (
	"fmt"

	"repro/internal/program"
	"repro/internal/trace"
)

// CompiledTrace is a trace precompiled for replay: the effective extent and
// repeat count of every activation resolved once against one program and
// stored in one flat array. The resolution (Extent 0 → full procedure
// size, extents clamped to the procedure, Repeat 0 → 1) is exactly what
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
	// events[i] is activation i, one 8-byte record per event.
	events  []event
	classes *classTable
}

// event is one compiled activation: its activation class — its (proc,
// effective extent) pair, deduplicated in first-appearance order — and its
// effective repeat count (≥ 1). Everything a replay derives from an event
// besides its repeat count (placed line span, conflict-freedom) is a
// function of the class alone, so a layout compiled against the classes
// (CompileLayout) answers those questions with one record load per event.
// Slices share the class table, so tables compiled against the full trace
// serve every window of it.
type event struct {
	class int32
	reps  int32
}

// classTable is the deduplicated (proc, effective extent) universe of one
// compilation: class c is procedure proc[c] fetched for ext[c] bytes (≥ 1).
// lead[c] is the widest class of the same procedure: under any layout the
// procedure's classes start on one line, and the widest class's lines
// cover every other's. The table is shared by pointer across every Slice
// of the compilation, so pointer identity decides whether a
// CompiledLayout built for one view is valid for another.
type classTable struct {
	proc []program.ProcID
	ext  []int32
	lead []int32
}

// CompileTrace precompiles tr for replay against layouts of prog. The
// events must reference valid procedures of prog (trace.Trace.Validate);
// out-of-range extents are clamped exactly as the general loop clamps
// them.
func CompileTrace(prog *program.Program, tr *trace.Trace) *CompiledTrace {
	ct := &CompiledTrace{
		prog:    prog,
		src:     tr,
		events:  make([]event, len(tr.Events)),
		classes: &classTable{},
	}
	// Class IDs are assigned in first-appearance order — a deterministic
	// function of the trace, independent of map iteration. widest[p] is
	// 1 + procedure p's widest class so far, 0 before its first.
	seen := make(map[int64]int32, 64)
	widest := make([]int32, prog.NumProcs())
	cls := ct.classes
	for i, e := range tr.Events {
		ext := int32(e.ExtentBytes(prog))
		key := int64(e.Proc)<<32 | int64(ext)
		id, ok := seen[key]
		if !ok {
			id = int32(len(cls.proc))
			seen[key] = id
			cls.proc = append(cls.proc, e.Proc)
			cls.ext = append(cls.ext, ext)
			if w := widest[e.Proc]; w == 0 || ext > cls.ext[w-1] {
				widest[e.Proc] = id + 1
			}
		}
		ct.events[i] = event{class: id, reps: int32(e.Repeats())}
	}
	cls.lead = make([]int32, len(cls.proc))
	for c, p := range cls.proc {
		cls.lead[c] = widest[p] - 1
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
func (ct *CompiledTrace) Len() int { return len(ct.events) }

// Slice returns a view of activations [lo, hi) sharing the compilation's
// event records — no per-event work is repeated. This is the unit of the
// sampled evaluation path (internal/sample): one full-trace compilation is
// sliced into warm-up and measurement windows that replay independently.
// The slice does not memoize as a whole-trace compilation (Sim.RunTrace
// will recompile rather than mistake a window for its source trace).
func (ct *CompiledTrace) Slice(lo, hi int) *CompiledTrace {
	if lo < 0 || hi > len(ct.events) || lo > hi {
		panic(fmt.Sprintf("cache: compiled trace slice [%d:%d) out of range [0:%d)", lo, hi, len(ct.events)))
	}
	return &CompiledTrace{
		prog:    ct.prog,
		events:  ct.events[lo:hi],
		classes: ct.classes,
	}
}

// matches reports whether ct is the compilation of (prog, tr) in its
// current length. Simulators use it to memoize compilation across repeated
// RunTrace calls with the same trace; the length guard catches a trace
// that grew via Append between calls (in-place mutation of existing events
// is not detected — recompile explicitly after editing a trace).
func (ct *CompiledTrace) matches(prog *program.Program, tr *trace.Trace) bool {
	return ct != nil && ct.prog == prog && ct.src == tr && len(ct.events) == len(tr.Events)
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
	rs := ReplayStats{Events: int64(len(ct.events))}
	for _, e := range ct.events {
		if e.reps == 1 {
			continue
		}
		r, c := int64(e.reps), &tab.recs[e.class]
		if c.free {
			rs.FastEvents++
			rs.CollapsedRepeats += r - 1
			rs.CollapsedRefs += (r - 1) * int64(c.span)
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
