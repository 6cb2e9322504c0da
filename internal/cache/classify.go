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

// lruList is a fully-associative LRU cache of capacity keys drawn from
// [0, n): the classified replay's shadow cache (keys are lines) and the
// iTLB (keys are pages). The recency list is threaded through per-key
// prev/next slot arrays, the idiom of trg.Queue, so a hit's move to the
// front and a miss's eviction of the tail are O(1).
type lruList struct {
	capacity, size int
	// head is the most and tail the least recently used key, or -1.
	head, tail int64
	// prev[k] is the next more recent key and next[k] the next less recent
	// one, or -1; in[k] reports whether k is cached.
	prev, next []int64
	in         []bool
}

func newLRUList(n int64, capacity int) *lruList {
	return &lruList{
		capacity: capacity,
		head:     -1,
		tail:     -1,
		prev:     make([]int64, n),
		next:     make([]int64, n),
		in:       make([]bool, n),
	}
}

// access references key k, moving it to the front, and reports whether it
// was cached; a miss with the list full evicts the tail.
func (l *lruList) access(k int64) bool {
	hit := l.in[k]
	switch {
	case hit && k == l.head:
		return true
	case hit:
		l.unlink(k)
	case l.size == l.capacity:
		t := l.tail
		l.unlink(t)
		l.in[t] = false
	default:
		l.size++
	}
	l.in[k] = true
	l.prev[k], l.next[k] = -1, l.head
	if l.head >= 0 {
		l.prev[l.head] = k
	} else {
		l.tail = k
	}
	l.head = k
	return hit
}

// unlink removes k, which must be in the list, from its position.
func (l *lruList) unlink(k int64) {
	p, nx := l.prev[k], l.next[k]
	if p >= 0 {
		l.next[p] = nx
	} else {
		l.head = nx
	}
	if nx >= 0 {
		l.prev[nx] = p
	} else {
		l.tail = p
	}
}

// RunTraceClassified replays tr like RunTrace but additionally classifies
// every miss as cold, capacity, or conflict and attributes misses to the
// procedure being fetched. It costs more than RunTrace (every line also
// goes through a fully-associative shadow cache); use it for analysis, not
// for the randomized-placement sweeps. The replay runs through the
// compiled engine (RunCompiledClassified); callers classifying one trace
// against many layouts should compile the trace once and call that
// directly.
func RunTraceClassified(cfg Config, layout *program.Layout, tr *trace.Trace) (ClassifiedStats, error) {
	cs, _, err := RunCompiledClassified(cfg, CompileTrace(layout.Program(), tr), layout)
	return cs, err
}

// RunCompiledClassified replays a precompiled trace with miss
// classification, returning the classified statistics (byte-identical to
// RunTraceClassified on the source trace) plus the replay engine counters.
// Its embedded Stats equal RunCompiled's for the same layout.
//
// The walk runs on the compiled engine's own state: the layout is compiled
// (CompileLayout) and bound to a BatchSim, and every line of every
// activation goes through the engine's per-line step, whose first-touch
// stamps decide cold misses. A miss that hits in the fully-associative
// shadow — an LRU list of the same capacity (Config.NumLines) over the
// layout's touched lines, keyed by their dense index — is a conflict
// miss, any other non-cold miss a capacity miss. Repeats collapse exactly
// as in the plain walk: a span within the collapse limit fits the shadow
// too, so iterations 2..r hit in both caches, produce no misses to
// classify, and leave both LRU states as iteration 1 left them.
func RunCompiledClassified(cfg Config, ct *CompiledTrace, layout *program.Layout) (ClassifiedStats, ReplayStats, error) {
	tab, err := CompileLayout(cfg, ct, layout)
	if err != nil {
		return ClassifiedStats{}, ReplayStats{}, err
	}
	bs := MustNewBatchSim(cfg)
	bs.bind(tab)
	shadow := newLRUList(tab.lines, cfg.NumLines())
	cs := ClassifiedStats{PerProc: make([]int64, ct.prog.NumProcs())}
	for _, e := range ct.events {
		c := &tab.recs[e.class]
		r, span := int64(e.reps), int64(c.span)
		iters := r
		if r > 1 && c.free {
			iters = 1
		}
		for it := int64(0); it < iters; it++ {
			for ln := c.first; ln < c.first+span; ln++ {
				faHit := shadow.access(ln + c.off)
				miss, cold := bs.access(ln, ln+c.off)
				if !miss {
					continue
				}
				cs.PerProc[ct.classes.proc[e.class]]++
				switch {
				case cold:
					cs.Cold++
				case faHit:
					cs.Conflict++
				default:
					cs.Capacity++
				}
			}
		}
		bs.stats.Refs += r * span
	}
	cs.Stats = bs.stats
	return cs, replayStats(ct, tab), nil
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
