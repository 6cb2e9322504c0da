package cache

import (
	"repro/internal/program"
	"repro/internal/trace"
)

// The per-reference oracles: straightforward loops over the raw trace
// events that the compiled replay engines are differentially tested
// against. export_test.go exposes them to the external test package.

// runTraceOracle is the general replay loop: every activation expands its
// repeat count into individual Access calls.
func (s *Sim) runTraceOracle(layout *program.Layout, tr *trace.Trace) Stats {
	s.Reset()
	return s.replayWindowOracle(layout, tr, 0, tr.Len())
}

// replayWindowOracle replays events [lo, hi) of tr through Access WITHOUT
// resetting first and returns the statistics delta the window added:
// cache contents and first-touch stamps carry over from earlier windows,
// as in the engine's windowed Replay.
func (s *Sim) replayWindowOracle(layout *program.Layout, tr *trace.Trace, lo, hi int) Stats {
	before := s.stats
	prog := layout.Program()
	lb := s.lineBytes
	for _, e := range tr.Events[lo:hi] {
		base := int64(layout.Addr(e.Proc))
		ext := int64(e.ExtentBytes(prog))
		first := base / lb
		last := (base + ext - 1) / lb
		for r := e.Repeats(); r > 0; r-- {
			for ln := first; ln <= last; ln++ {
				s.Access(ln * lb)
			}
		}
	}
	return Stats{
		Refs:   s.stats.Refs - before.Refs,
		Misses: s.stats.Misses - before.Misses,
		Cold:   s.stats.Cold - before.Cold,
	}
}

// runTraceClassifiedOracle is the general classification loop, the
// reference for RunCompiledClassified.
func runTraceClassifiedOracle(cfg Config, layout *program.Layout, tr *trace.Trace) (ClassifiedStats, error) {
	sim, err := NewSim(cfg)
	if err != nil {
		return ClassifiedStats{}, err
	}
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
				hit := sim.Access(ln * lb)
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
	cs.Stats = sim.Stats()
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
