package cache

import (
	"repro/internal/program"
	"repro/internal/trace"
)

// Oracle access for the differential tests in the external cache_test
// package: the per-reference loops (oracle_test.go) the compiled replay
// engines must agree with byte-for-byte.

// RunTraceOracle exposes the general RunTrace loop.
func (s *Sim) RunTraceOracle(layout *program.Layout, tr *trace.Trace) Stats {
	return s.runTraceOracle(layout, tr)
}

// ReplayWindowOracle exposes the windowed loop: events [lo, hi) of tr,
// without a reset, returning the window's statistics delta.
func (s *Sim) ReplayWindowOracle(layout *program.Layout, tr *trace.Trace, lo, hi int) Stats {
	return s.replayWindowOracle(layout, tr, lo, hi)
}

// RunTraceClassifiedOracle exposes the general classification loop.
var RunTraceClassifiedOracle = runTraceClassifiedOracle

// RunTraceTLBOracle exposes the general iTLB loop.
var RunTraceTLBOracle = runTraceTLBOracle
