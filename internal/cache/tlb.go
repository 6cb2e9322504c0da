package cache

import (
	"fmt"

	"repro/internal/program"
	"repro/internal/trace"
)

// TLBConfig describes an instruction TLB: a fully-associative LRU array of
// page translations, the common organization for first-level iTLBs.
type TLBConfig struct {
	// Entries is the number of translations held. Default-free; must be
	// positive.
	Entries int
	// PageBytes is the page size. Must be positive.
	PageBytes int
}

// Validate checks the configuration.
func (c TLBConfig) Validate() error {
	if c.Entries <= 0 || c.PageBytes <= 0 {
		return fmt.Errorf("cache: non-positive TLB config %+v", c)
	}
	return nil
}

// RunTraceTLB replays the trace through an iTLB simulation: every page the
// executed extent of an activation touches is referenced in order. The
// paper's conclusion points at "other layers of the memory hierarchy" as
// the follow-on for temporal-ordering placement; the iTLB is the nearest
// such layer, and layouts that keep temporally related procedures on the
// same pages (see place.LinearizePageAware) reduce exactly these misses.
// The replay runs through the compiled engine (RunCompiledTLB); callers
// replaying one trace against many layouts should compile the trace once
// and call that directly.
func RunTraceTLB(cfg TLBConfig, layout *program.Layout, tr *trace.Trace) (Stats, error) {
	st, _, err := RunCompiledTLB(cfg, CompileTrace(layout.Program(), tr), layout)
	return st, err
}

// RunCompiledTLB replays a precompiled trace through the iTLB simulation,
// returning statistics byte-identical to RunTraceTLB on the source trace
// plus the replay engine counters. The TLB is an LRU list over the
// layout's pages (the classified replay's shadow structure). The loop
// visits each page of an activation once (repeats do not re-reference
// pages), so there is nothing to collapse; the fast path instead
// short-circuits the dominant case of a single-page activation whose page
// is already most recently used — consecutive activations of co-paged
// procedures — by reading the list head (MRU re-reference leaves the list
// unchanged).
func RunCompiledTLB(cfg TLBConfig, ct *CompiledTrace, layout *program.Layout) (Stats, ReplayStats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, ReplayStats{}, err
	}
	ct.checkProgram(layout)
	pb := cfg.PageBytes
	var pages int64
	if ext := layout.Extent(); ext > 0 {
		pages = int64((ext-1)/pb + 1)
	}
	tlb := newLRUList(pages, cfg.Entries)
	var st Stats
	var rs ReplayStats
	for i, p := range ct.procs {
		start := layout.Addr(p)
		end := start + int(ct.exts[i]) - 1
		firstPg, lastPg := int64(start/pb), int64(end/pb)
		rs.Events++
		if firstPg == lastPg && tlb.head == firstPg {
			st.Refs++
			rs.FastEvents++
			continue
		}
		rs.FallbackEvents++
		for pg := firstPg; pg <= lastPg; pg++ {
			st.Refs++
			if !tlb.access(pg) {
				st.Misses++
			}
		}
	}
	return st, rs, nil
}
