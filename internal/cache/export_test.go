package cache

import (
	"repro/internal/program"
	"repro/internal/trace"
)

// Oracle access for the differential tests in the external cache_test
// package: the per-reference simulator and loops (oracle_test.go) the
// compiled replay engines must agree with byte-for-byte.

// RefSim is the per-reference simulator.
type RefSim = refSim

// NewRefSim creates a per-reference simulator; cfg must be valid.
var NewRefSim = newRefSim

// RunTraceOracle exposes the general replay loop.
func (s *RefSim) RunTraceOracle(layout *program.Layout, tr *trace.Trace) Stats {
	return s.runTraceOracle(layout, tr)
}

// ReplayWindowOracle exposes the windowed loop: events [lo, hi) of tr,
// without a reset, returning the window's statistics delta.
func (s *RefSim) ReplayWindowOracle(layout *program.Layout, tr *trace.Trace, lo, hi int) Stats {
	return s.replayWindowOracle(layout, tr, lo, hi)
}

// Stats returns the statistics accumulated since the last reset.
func (s *RefSim) Stats() Stats { return s.stats }

// RunTraceClassifiedOracle exposes the general classification loop.
var RunTraceClassifiedOracle = runTraceClassifiedOracle

// RunTraceTLBOracle exposes the general iTLB loop.
var RunTraceTLBOracle = runTraceTLBOracle
