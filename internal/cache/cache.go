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
	// each line in the run. The remainder — Conflict() — are lines that
	// were evicted and fetched again, the misses a placement can influence.
	// The cache engines maintain it; the TLB simulator leaves it zero.
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

// Sim runs the compiled replay engine (BatchSim) one layout at a time for
// callers that hold a layout and a trace rather than their compilations: it
// memoizes the trace compilation across calls, recompiles the layout into a
// reused buffer, and keeps the last run's statistics and replay counters.
// The per-reference specification the engine is held to lives in the
// tests (oracle_test.go).
type Sim struct {
	cfg   Config
	stats Stats

	// engine runs the compiled replays bound to tab, a compiled-layout
	// buffer reused across runs. memo caches the most recent trace
	// compilation so hot loops that call RunTrace repeatedly with the same
	// (program, trace) pay for compilation once; last is the trace of the
	// latest run, which Replay derives its counters from.
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
	return &Sim{cfg: cfg, engine: engine}, nil
}

// MustNewSim is NewSim but panics on error.
func MustNewSim(cfg Config) *Sim {
	s, err := NewSim(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the simulator's configuration.
func (s *Sim) Config() Config { return s.cfg }

// Stats returns the statistics of the last RunTrace or RunCompiled call.
func (s *Sim) Stats() Stats { return s.stats }

// Replay returns the replay-engine counters of the last RunTrace or
// RunCompiled call, zero before the first.
func (s *Sim) Replay() ReplayStats {
	if s.last == nil {
		return ReplayStats{}
	}
	return replayStats(s.last, &s.tab)
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
// one simulator's allocations across many layouts instead of allocating a
// fresh simulator per measurement.
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
// by layout through the compiled engine (BatchSim), returning the
// resulting statistics — byte-identical to a per-reference replay of the
// source trace (same reference stream, same cold/conflict split), at a
// fraction of the cost:
//
//   - The effective extent and repeat count of every activation come from
//     the compilation, and each activation class's placed span and
//     conflict-freedom from the compiled layout, so per event the walk
//     reads one 8-byte event record and one class record.
//   - Repeat collapsing: an activation whose placed span of consecutive
//     lines is self-conflict-free in this geometry (span ≤ NumLines — which
//     gives distinct sets when direct-mapped and at most Assoc span lines
//     per set under LRU) hits on every reference after its first iteration,
//     and each iteration leaves the cache in the same state as the first.
//     Iterations 2..r are therefore accounted as Refs += (r−1)·span with no
//     simulation at all, turning O(r·span) into O(span). Spans that exceed
//     the limit can self-evict, so they replay every iteration.
//   - Conflict-free classes proven still resident settle in O(1) (the
//     engine's residency memo): no set they cover has been written since
//     their last walk, where a write is a direct-mapped tag write or a
//     change to an LRU set's MRU-first order.
//
// Stats returns the run's statistics. The layout must place the program
// the trace was compiled against.
func (s *Sim) RunCompiled(ct *CompiledTrace, layout *program.Layout) Stats {
	s.tab.compile(s.cfg, ct, layout)
	s.stats = s.engine.runTable(ct, &s.tab)
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
