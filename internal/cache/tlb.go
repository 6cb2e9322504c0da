package cache

import (
	"fmt"
	"math"

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
	// The replay compiles the layout for a cache of Entries pages.
	if c.Entries > math.MaxInt/c.PageBytes {
		return fmt.Errorf("cache: TLB config %+v spans more than %d bytes", c, math.MaxInt)
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
// plus the replay engine counters. A page is a line of a one-set cache
// with Entries ways, so the layout compiles at page granularity
// (CompileLayout) and the TLB is an LRU list (the classified replay's
// shadow structure) over the dense index of the pages the trace touches,
// however far apart the layout places them. The loop visits each page of
// an activation once (repeats do not re-reference pages), so there is
// nothing to collapse; the fast path instead short-circuits the dominant
// case of a single-page activation whose page is already most recently
// used — consecutive activations of co-paged procedures — by reading the
// list head (MRU re-reference leaves the list unchanged).
func RunCompiledTLB(cfg TLBConfig, ct *CompiledTrace, layout *program.Layout) (Stats, ReplayStats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, ReplayStats{}, err
	}
	pages := Config{SizeBytes: cfg.Entries * cfg.PageBytes, LineBytes: cfg.PageBytes, Assoc: cfg.Entries}
	tab, err := CompileLayout(pages, ct, layout)
	if err != nil {
		return Stats{}, ReplayStats{}, err
	}
	tlb := newLRUList(tab.lines, cfg.Entries)
	var st Stats
	var rs ReplayStats
	for _, e := range ct.events {
		c := &tab.recs[e.class]
		first, last := c.first+c.off, c.first+c.off+int64(c.span)
		rs.Events++
		if c.span == 1 && tlb.head == first {
			st.Refs++
			rs.FastEvents++
			continue
		}
		rs.FallbackEvents++
		for pg := first; pg < last; pg++ {
			st.Refs++
			if !tlb.access(pg) {
				st.Misses++
			}
		}
	}
	return st, rs, nil
}
