// Package cache implements trace-driven instruction-cache simulation for
// direct-mapped and set-associative (LRU) caches. It is the measurement
// device of the paper's evaluation: given a layout and a trace, it reports
// the instruction-cache miss rate of the resulting executable.
package cache

import (
	"fmt"

	"repro/internal/program"
	"repro/internal/trace"
)

// Config describes an instruction cache.
type Config struct {
	// SizeBytes is the total cache capacity in bytes.
	SizeBytes int
	// LineBytes is the cache line (block) size in bytes.
	LineBytes int
	// Assoc is the set associativity; 1 means direct-mapped.
	Assoc int
}

// PaperConfig is the cache used throughout the paper's evaluation
// (Section 5.2): 8 KB direct-mapped with 32-byte lines.
var PaperConfig = Config{SizeBytes: 8192, LineBytes: 32, Assoc: 1}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive config %+v", c)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	return nil
}

// NumLines returns the total number of cache lines.
func (c Config) NumLines() int { return c.SizeBytes / c.LineBytes }

// NumSets returns the number of sets (NumLines for direct-mapped caches
// divided by associativity).
func (c Config) NumSets() int { return c.NumLines() / c.Assoc }

// Stats accumulates simulation results.
type Stats struct {
	Refs   int64
	Misses int64
	// Cold counts the compulsory subset of Misses: the first reference to
	// each line since the simulator was created or Reset. The remainder —
	// Conflict() — are lines that were evicted and fetched again, the
	// misses a placement can influence. Cold is maintained by Sim;
	// aggregates built by hand (e.g. the TLB simulator) leave it zero.
	Cold int64
}

// MissRate returns Misses/Refs, or 0 for an empty simulation.
func (s Stats) MissRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Refs)
}

// Conflict returns the non-compulsory misses: conflict plus capacity. In
// the paper's direct-mapped configuration the working sets fit, so these
// are overwhelmingly mapping conflicts; RunTraceClassified separates the
// two exactly with a fully-associative shadow cache.
func (s Stats) Conflict() int64 { return s.Misses - s.Cold }

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.Refs += other.Refs
	s.Misses += other.Misses
	s.Cold += other.Cold
}

// Sim is a functional instruction-cache simulator. Access is the
// per-reference specification of the cache: the tag stored per way is the
// line-granular memory address (address / LineBytes), which uniquely
// identifies the cached content, and each set is an LRU list. RunTrace and
// RunCompiled are one-lane runs of the compiled replay engine (BatchSim),
// which the differential tests hold byte-identical to Access.
type Sim struct {
	cfg Config
	// lineBytes and numSets cache the per-access divisors so Access does
	// not re-derive them from cfg on every reference.
	lineBytes int64
	numSets   int64
	// lineShift/setMask strength-reduce the address arithmetic for
	// power-of-two geometries (the common case, including every
	// configuration the paper evaluates): addr→line becomes a shift and
	// line→set a mask. The OK flags gate the fast arithmetic; non-power-
	// of-two geometries — which Config.Validate accepts — fall back to
	// div/mod with identical results.
	lineShift   uint
	lineShiftOK bool
	setMask     int64
	setMaskOK   bool
	// dm is the direct-mapped fast path: when Assoc == 1 each set holds at
	// most one line, so dm[s] is that line's tag (-1 when empty; line
	// addresses are non-negative because layouts start at address 0) and
	// the LRU machinery is skipped entirely.
	dm    []int64
	sets  [][]int64 // sets[s] is an LRU-ordered list (front = MRU) of line tags
	stats Stats
	// seen stamps each line address with the epoch of its first reference,
	// so misses can be split into compulsory (first touch) and conflict
	// (refetch after eviction). Reset bumps the epoch instead of clearing
	// the array, making Reset O(sets) rather than O(address space) while
	// still starting every run with a fresh compulsory-miss accounting —
	// a reused simulator neither double-counts nor under-counts cold
	// misses relative to a freshly allocated one.
	seen  []uint32
	epoch uint32

	// engine runs the compiled replays on one lane bound to tab, a
	// compiled-layout buffer reused across runs. memo caches the most
	// recent trace compilation so hot loops that call RunTrace repeatedly
	// with the same (program, trace) pay for compilation once; last is the
	// trace of the latest compiled run (nil after Reset), which Replay
	// derives its counters from.
	engine *BatchSim
	tab    CompiledLayout
	memo   *CompiledTrace
	last   *CompiledTrace
}

// NewSim creates a simulator for the given configuration.
func NewSim(cfg Config) (*Sim, error) {
	engine, err := NewBatchSim(cfg)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:       cfg,
		lineBytes: int64(cfg.LineBytes),
		numSets:   int64(cfg.NumSets()),
		epoch:     1,
		engine:    engine,
	}
	if shift, ok := log2(s.lineBytes); ok {
		s.lineShift, s.lineShiftOK = shift, true
	}
	if _, ok := log2(s.numSets); ok {
		s.setMask, s.setMaskOK = s.numSets-1, true
	}
	if cfg.Assoc == 1 {
		s.dm = make([]int64, s.numSets)
		for i := range s.dm {
			s.dm[i] = -1
		}
		return s, nil
	}
	s.sets = make([][]int64, s.numSets)
	for i := range s.sets {
		s.sets[i] = make([]int64, 0, cfg.Assoc)
	}
	return s, nil
}

// MustNewSim is NewSim but panics on error.
func MustNewSim(cfg Config) *Sim {
	s, err := NewSim(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// log2 returns the base-2 logarithm of v and true when v is a positive
// power of two.
func log2(v int64) (uint, bool) {
	if v <= 0 || v&(v-1) != 0 {
		return 0, false
	}
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n, true
}

// Config returns the simulator's configuration.
func (s *Sim) Config() Config { return s.cfg }

// Reset clears cache contents and statistics.
func (s *Sim) Reset() {
	for i := range s.dm {
		s.dm[i] = -1
	}
	for i := range s.sets {
		s.sets[i] = s.sets[i][:0]
	}
	s.stats = Stats{}
	s.last = nil
	s.epoch++
	if s.epoch == 0 { // wraparound after ~4e9 Resets: actually clear the stamps
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.epoch = 1
	}
}

// Access references the line containing byte address addr, updating LRU
// state and statistics. It reports whether the access hit.
func (s *Sim) Access(addr int64) bool {
	if s.lineShiftOK {
		return s.accessLine(addr >> s.lineShift)
	}
	return s.accessLine(addr / s.lineBytes)
}

// accessLine references the line with line-granular address lineAddr (i.e.
// byte address / LineBytes), updating LRU state and statistics. Callers
// that already iterate line addresses (the classifying replay) skip the
// per-reference byte→line division that Access performs.
func (s *Sim) accessLine(lineAddr int64) bool {
	var setIdx int
	if s.setMaskOK {
		setIdx = int(lineAddr & s.setMask)
	} else {
		setIdx = int(lineAddr % s.numSets)
	}
	s.stats.Refs++
	if s.dm != nil {
		if s.dm[setIdx] == lineAddr {
			return true
		}
		s.dm[setIdx] = lineAddr
		s.miss(lineAddr)
		return false
	}
	set := s.sets[setIdx]
	for i, tag := range set {
		if tag == lineAddr {
			// Hit: move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = lineAddr
			return true
		}
	}
	// Miss: insert at MRU, evicting LRU if the set is full.
	s.miss(lineAddr)
	if len(set) < s.cfg.Assoc {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = lineAddr
	s.sets[setIdx] = set
	return false
}

// miss records a miss on lineAddr, classifying it as compulsory when the
// line has never been referenced in the current epoch. Only the miss path
// pays for the classification; hits are untouched.
func (s *Sim) miss(lineAddr int64) {
	s.stats.Misses++
	if lineAddr >= int64(len(s.seen)) {
		s.seen = append(s.seen, make([]uint32, lineAddr+1-int64(len(s.seen)))...)
	}
	if s.seen[lineAddr] != s.epoch {
		s.seen[lineAddr] = s.epoch
		s.stats.Cold++
	}
}

// Stats returns the accumulated statistics: the references made through
// Access since the last Reset, or the result of the last compiled run.
func (s *Sim) Stats() Stats { return s.stats }

// Replay returns the replay-engine counters of the last RunTrace or
// RunCompiled call; they are zero after Reset and for runs made through
// Access. An activation with repeats collapses (counted in FastEvents,
// CollapsedRepeats and CollapsedRefs) exactly when its placed span is
// self-conflict-free, so the counters follow from the compiled layout and
// the repeat counts alone, in one pass over the trace.
func (s *Sim) Replay() ReplayStats {
	ct := s.last
	if ct == nil {
		return ReplayStats{}
	}
	rs := ReplayStats{Events: int64(ct.n)}
	for i, c := range ct.classOf {
		r := int64(ct.reps[i])
		if r == 1 {
			continue
		}
		if s.tab.free[c] {
			rs.FastEvents++
			rs.CollapsedRepeats += r - 1
			rs.CollapsedRefs += (r - 1) * s.tab.span[c]
		} else {
			rs.FallbackEvents++
		}
	}
	return rs
}

// RunTrace resets the simulator and replays tr (placed by layout) through
// it, returning the resulting statistics. The layout supplies each
// procedure's starting byte address; each activation fetches, in order,
// every cache line overlapping its placed extent [addr, addr+extent) once
// per repeat — the reference stream a sequential instruction fetch would
// produce.
//
// The reference count is therefore alignment-DEPENDENT: a procedure whose
// start is not line-aligned can overlap ceil(extent/LineBytes)+1 lines, one
// more than trace.NumLineRefs counts for the same activation. NumLineRefs
// is the layout-independent footprint (the Table 1 "refs" columns, equal
// for every placement of the same trace); RunTrace models the fetch stream
// of one concrete placement, which is exactly the alignment sensitivity the
// paper exploits. Divergence is at most one line per repeat per activation.
//
// The method form exists so hot loops (the perturbation sweeps) can reuse
// one simulator's allocations across many layouts via Reset instead of
// allocating a fresh simulator per measurement.
//
// Replay runs through the compiled engine (see RunCompiled): the trace is
// precompiled once per (program, trace) pair — memoized across calls on
// the same simulator.
func (s *Sim) RunTrace(layout *program.Layout, tr *trace.Trace) Stats {
	prog := layout.Program()
	if !s.memo.matches(prog, tr) {
		s.memo = CompileTrace(prog, tr)
	}
	return s.RunCompiled(s.memo, layout)
}

// RunCompiled resets the simulator and replays the compiled trace placed
// by layout on one lane of the compiled engine (BatchSim), returning the
// resulting statistics — byte-identical to the per-reference Access loop
// over the source trace (same reference stream, same cold/conflict
// split), at a fraction of the cost:
//
//   - The effective extent and repeat count of every activation come from
//     the compilation, and each activation class's placed span and
//     conflict-freedom from the compiled layout, so per event the walk pays
//     two array loads.
//   - Repeat collapsing: an activation whose placed span of consecutive
//     lines is self-conflict-free in this geometry (span ≤ NumLines — which
//     gives distinct sets when direct-mapped and at most Assoc span lines
//     per set under LRU) hits on every reference after its first iteration,
//     and each iteration leaves the cache in the same state as the first.
//     Iterations 2..r are therefore accounted as Refs += (r−1)·span with no
//     simulation at all, turning O(r·span) into O(span). Spans that exceed
//     the limit can self-evict, so they replay every iteration.
//   - Direct-mapped classes proven still resident settle in O(1) (the
//     engine's residency memo).
//
// A compiled run resets the per-reference Access state without advancing
// it; Stats returns the run's statistics. The layout must place the
// program the trace was compiled against.
func (s *Sim) RunCompiled(ct *CompiledTrace, layout *program.Layout) Stats {
	s.Reset()
	s.tab.compile(s.cfg, ct, layout)
	s.stats = s.engine.runLane(ct, &s.tab)
	s.last = ct
	return s.stats
}

// RunTrace replays tr (placed by layout) through a fresh simulation and
// returns the resulting statistics. See (*Sim).RunTrace for the reference
// stream semantics (and its intentional divergence from trace.NumLineRefs
// on unaligned procedure starts).
func RunTrace(cfg Config, layout *program.Layout, tr *trace.Trace) (Stats, error) {
	sim, err := NewSim(cfg)
	if err != nil {
		return Stats{}, err
	}
	return sim.RunTrace(layout, tr), nil
}

// MissRate is a convenience wrapper around RunTrace returning only the miss
// rate.
func MissRate(cfg Config, layout *program.Layout, tr *trace.Trace) (float64, error) {
	st, err := RunTrace(cfg, layout, tr)
	if err != nil {
		return 0, err
	}
	return st.MissRate(), nil
}

// MissRateCompiled replays a precompiled trace through a fresh simulation
// and returns the miss rate. Callers replaying the same trace against many
// layouts should compile it once (CompileTrace) and use this instead of
// MissRate so the per-event extent/repeat resolution is not repeated per
// layout.
func MissRateCompiled(cfg Config, ct *CompiledTrace, layout *program.Layout) (float64, error) {
	sim, err := NewSim(cfg)
	if err != nil {
		return 0, err
	}
	return sim.RunCompiled(ct, layout).MissRate(), nil
}
