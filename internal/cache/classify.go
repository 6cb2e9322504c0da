package cache

import (
	"sort"

	"repro/internal/program"
	"repro/internal/trace"
)

// MissClass categorizes a cache miss.
type MissClass int

// The three C's of cache-miss classification.
const (
	// MissCold is the first reference ever to a line (compulsory).
	MissCold MissClass = iota
	// MissCapacity would miss even in a fully-associative LRU cache of
	// the same capacity: the working set simply does not fit.
	MissCapacity
	// MissConflict hits in the fully-associative cache but misses in the
	// simulated one: an artifact of the address mapping, i.e. exactly the
	// class of misses code placement can remove.
	MissConflict
)

// String returns the conventional name of the class.
func (c MissClass) String() string {
	switch c {
	case MissCold:
		return "cold"
	case MissCapacity:
		return "capacity"
	case MissConflict:
		return "conflict"
	}
	return "unknown"
}

// ClassifiedStats extends Stats with a miss breakdown and per-procedure
// attribution.
type ClassifiedStats struct {
	Stats
	// Cold, Capacity and Conflict partition Stats.Misses.
	Cold, Capacity, Conflict int64
	// PerProc[p] counts the misses suffered while fetching procedure p.
	PerProc []int64
}

// fullyAssoc is an LRU stack simulating a fully-associative cache of
// capacity lines; used as the classification oracle.
type fullyAssoc struct {
	capacity int
	pos      map[int64]int // line address → index in stack
	stack    []int64       // MRU first
}

func newFullyAssoc(capacity int) *fullyAssoc {
	return &fullyAssoc{capacity: capacity, pos: make(map[int64]int)}
}

// access returns whether the line hit, updating LRU state.
func (f *fullyAssoc) access(lineAddr int64) bool {
	if idx, ok := f.pos[lineAddr]; ok {
		// Move to front.
		copy(f.stack[1:idx+1], f.stack[:idx])
		f.stack[0] = lineAddr
		for i := 0; i <= idx; i++ {
			f.pos[f.stack[i]] = i
		}
		return true
	}
	if len(f.stack) < f.capacity {
		f.stack = append(f.stack, 0)
	} else {
		delete(f.pos, f.stack[len(f.stack)-1])
	}
	copy(f.stack[1:], f.stack[:len(f.stack)-1])
	f.stack[0] = lineAddr
	for i := range f.stack {
		f.pos[f.stack[i]] = i
	}
	return false
}

// RunTraceClassified replays tr like RunTrace but additionally classifies
// every miss as cold, capacity, or conflict and attributes misses to the
// procedure being fetched. It is slower than RunTrace (it runs a
// fully-associative shadow cache); use it for analysis, not for the
// randomized-placement sweeps. The replay runs through the compiled
// engine (RunCompiledClassified); callers classifying one trace against
// many layouts should compile the trace once and call that directly.
func RunTraceClassified(cfg Config, layout *program.Layout, tr *trace.Trace) (ClassifiedStats, error) {
	cs, _, err := RunCompiledClassified(cfg, CompileTrace(layout.Program(), tr), layout)
	return cs, err
}

// RunCompiledClassified replays a precompiled trace with miss
// classification, returning the classified statistics (byte-identical to
// RunTraceClassified on the source trace) plus the replay engine counters.
//
// Repeat collapsing applies here exactly as in the compiled engine: the
// fully-associative shadow has the same capacity as the simulated cache
// (Config.NumLines), so a span within the collapse limit fits the shadow
// too — iterations 2..r hit in both caches, produce no misses to classify,
// and leave both LRU states as iteration 1 left them. Cold-line tracking
// uses a flat slice over the layout's line range instead of the oracle's
// map (line addresses are bounded by the layout extent).
func RunCompiledClassified(cfg Config, ct *CompiledTrace, layout *program.Layout) (ClassifiedStats, ReplayStats, error) {
	sim, err := NewSim(cfg)
	if err != nil {
		return ClassifiedStats{}, ReplayStats{}, err
	}
	ct.checkProgram(layout)
	cs := ClassifiedStats{PerProc: make([]int64, ct.prog.NumProcs())}
	shadow := newFullyAssoc(cfg.NumLines())

	lb := sim.lineBytes
	limit := int64(cfg.NumLines())
	var rs ReplayStats
	var coldSeen []bool
	if ext := int64(layout.Extent()); ext > 0 {
		coldSeen = make([]bool, (ext-1)/lb+1)
	}
	for i, p := range ct.procs {
		base := int64(layout.Addr(p))
		first, last := base/lb, (base+int64(ct.exts[i])-1)/lb
		span := last - first + 1
		r := int64(ct.reps[i])
		rs.Events++
		iters := r
		collapsed := false
		if r > 1 {
			if span <= limit {
				iters, collapsed = 1, true
			} else {
				rs.FallbackEvents++
			}
		}
		for it := int64(0); it < iters; it++ {
			for ln := first; ln <= last; ln++ {
				faHit := shadow.access(ln)
				if sim.accessLine(ln) {
					continue
				}
				cs.PerProc[p]++
				switch {
				case !coldSeen[ln]:
					cs.Cold++
					coldSeen[ln] = true
				case faHit:
					cs.Conflict++
				default:
					cs.Capacity++
				}
			}
		}
		if collapsed {
			rs.FastEvents++
			rs.CollapsedRepeats += r - 1
			rs.CollapsedRefs += (r - 1) * span
		}
	}
	cs.Stats = sim.Stats()
	cs.Refs += rs.CollapsedRefs
	return cs, rs, nil
}

// TopMissProcs returns the n procedures with the most attributed misses,
// most first.
func (cs *ClassifiedStats) TopMissProcs(n int) []program.ProcID {
	ids := make([]program.ProcID, 0, len(cs.PerProc))
	for p, m := range cs.PerProc {
		if m > 0 {
			ids = append(ids, program.ProcID(p))
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if cs.PerProc[ids[i]] != cs.PerProc[ids[j]] {
			return cs.PerProc[ids[i]] > cs.PerProc[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}
