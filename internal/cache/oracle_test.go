package cache

import (
	"repro/internal/program"
	"repro/internal/trace"
)

// The per-reference oracles: a straightforward cache simulator and plain
// loops over the raw trace events, the specification the compiled replay
// engines are differentially tested against. export_test.go exposes them
// to the external test package.

// refSim is the per-reference specification of the cache. The tag stored
// per way is the line-granular memory address (address / LineBytes), which
// uniquely identifies the cached content, and each set is an MRU-first LRU
// list (a direct-mapped set is a list of one). A miss on a line never
// referenced since the last reset is cold.
type refSim struct {
	cfg   Config
	sets  [][]int64
	seen  map[int64]bool
	stats Stats
}

// newRefSim creates the per-reference simulator; cfg must be valid.
func newRefSim(cfg Config) *refSim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &refSim{cfg: cfg, sets: make([][]int64, cfg.NumSets())}
	s.reset()
	return s
}

// reset empties the cache, forgets every first touch and zeroes the
// statistics.
func (s *refSim) reset() {
	for i := range s.sets {
		s.sets[i] = s.sets[i][:0]
	}
	s.seen = map[int64]bool{}
	s.stats = Stats{}
}

// access references the line containing byte address addr, updating LRU
// state and statistics. It reports whether the access hit.
func (s *refSim) access(addr int64) bool {
	line := addr / int64(s.cfg.LineBytes)
	idx := line % int64(len(s.sets))
	set := s.sets[idx]
	s.stats.Refs++
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	s.stats.Misses++
	if !s.seen[line] {
		s.seen[line] = true
		s.stats.Cold++
	}
	if len(set) < s.cfg.Assoc {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	s.sets[idx] = set
	return false
}

// runTraceOracle is the general replay loop: every activation expands its
// repeat count into individual accesses, from an empty cache.
func (s *refSim) runTraceOracle(layout *program.Layout, tr *trace.Trace) Stats {
	s.reset()
	return s.replayWindowOracle(layout, tr, 0, tr.Len())
}

// replayWindowOracle replays events [lo, hi) of tr WITHOUT resetting first
// and returns the statistics delta the window added: cache contents and
// first touches carry over from earlier windows, as in the engine's
// windowed Replay.
func (s *refSim) replayWindowOracle(layout *program.Layout, tr *trace.Trace, lo, hi int) Stats {
	before := s.stats
	prog := layout.Program()
	lb := int64(s.cfg.LineBytes)
	for _, e := range tr.Events[lo:hi] {
		base := int64(layout.Addr(e.Proc))
		ext := int64(e.ExtentBytes(prog))
		first := base / lb
		last := (base + ext - 1) / lb
		for r := e.Repeats(); r > 0; r-- {
			for ln := first; ln <= last; ln++ {
				s.access(ln * lb)
			}
		}
	}
	return Stats{
		Refs:   s.stats.Refs - before.Refs,
		Misses: s.stats.Misses - before.Misses,
		Cold:   s.stats.Cold - before.Cold,
	}
}

// fullyAssoc is an LRU stack simulating a fully-associative cache of
// capacity lines: the reference for lruList, and the shadow cache of the
// classification oracle.
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

// runTraceClassifiedOracle is the general classification loop, the
// reference for RunCompiledClassified.
func runTraceClassifiedOracle(cfg Config, layout *program.Layout, tr *trace.Trace) (ClassifiedStats, error) {
	if err := cfg.Validate(); err != nil {
		return ClassifiedStats{}, err
	}
	sim := newRefSim(cfg)
	prog := layout.Program()
	cs := ClassifiedStats{PerProc: make([]int64, prog.NumProcs())}
	shadow := newFullyAssoc(cfg.NumLines())
	seen := make(map[int64]bool)

	lb := int64(cfg.LineBytes)
	for _, e := range tr.Events {
		base := int64(layout.Addr(e.Proc))
		ext := int64(e.ExtentBytes(prog))
		first := base / lb
		last := (base + ext - 1) / lb
		for r := e.Repeats(); r > 0; r-- {
			for ln := first; ln <= last; ln++ {
				faHit := shadow.access(ln)
				hit := sim.access(ln * lb)
				if hit {
					continue
				}
				cs.PerProc[e.Proc]++
				switch {
				case !seen[ln]:
					cs.Cold++
					seen[ln] = true
				case faHit:
					cs.Conflict++
				default:
					cs.Capacity++
				}
			}
		}
	}
	cs.Stats = sim.stats
	return cs, nil
}

// runTraceTLBOracle is the general iTLB loop, the reference for
// RunCompiledTLB.
func runTraceTLBOracle(cfg TLBConfig, layout *program.Layout, tr *trace.Trace) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	prog := layout.Program()
	tlb := newFullyAssoc(cfg.Entries)
	var st Stats
	pb := cfg.PageBytes
	for _, e := range tr.Events {
		start := layout.Addr(e.Proc)
		end := start + e.ExtentBytes(prog) - 1
		for pg := start / pb; pg <= end/pb; pg++ {
			st.Refs++
			if !tlb.access(int64(pg)) {
				st.Misses++
			}
		}
	}
	return st, nil
}
