package cache

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/program"
)

// This file implements the compiled replay engine: a BatchSim binds one
// compiled layout and walks compiled traces against it. Sim's compiled
// runs, the classified replay, the sampled evaluator's windows and every
// multi-layout driver go through it, one layout per walk; layouts share no
// simulated state, so scoring K layouts is K independent walks of the same
// CompiledTrace.
//
// Statistics are byte-identical to the per-reference oracle the tests keep
// (oracle_test.go): the walk performs exactly the reference stream's
// accesses, including the §4c repeat collapse. Per event the walk reads
// two records: the trace's 8-byte event (class, repeats) and the bound
// layout's class record (first line, span, conflict-freedom, dense line
// offset and residency stamp), which CompileLayout precomputes per layout
// and Bind copies into the simulator. A span that must be walked goes to
// the geometry's line loop: the direct-mapped tag compare or the LRU way
// shift.
//
// Early abandonment rides on miss-count monotonicity: the running miss
// count only grows as the walk proceeds, so once it exceeds a
// caller-supplied budget (e.g. an incumbent's final count) the final
// count must exceed it too and the walk can stop.

// CompiledLayout is a layout compiled against a CompiledTrace's activation
// classes for one cache geometry: one record per class (classRec). One
// table serves every replay of the layout against any view — full trace
// or Slice — sharing the class table it was compiled from. A table is
// immutable between compiles and safe for concurrent use; a simulator
// copies what it needs when it binds the table, so recompiling a bound
// table does not disturb the binding.
type CompiledLayout struct {
	layout  *program.Layout
	classes *classTable
	cfg     Config
	recs    []classRec
	// lines is the number of distinct lines the classes touch, the range
	// of the dense line index (seen, the classified replay's shadow).
	lines int64
	// runs is compile's scratch for merging the procedures' line ranges.
	runs []lineRun
}

// classRec is one activation class as the layout places it: the first
// placed line (line-granular address), the number of consecutive lines
// referenced, whether that span is self-conflict-free in this geometry
// (span ≤ NumLines, the §4c collapse criterion), and the offset that maps
// each of its lines to a dense index: line ln of the class is line ln+off
// of the layout's touched lines.
type classRec struct {
	first int64
	off   int64
	span  int32
	free  bool
}

// lineRun is the line range [first, end) of a procedure's widest class
// c, the unit compile sorts and merges.
type lineRun struct {
	first, end int64
	c          int32
}

// Layout returns the layout the table was compiled from.
func (cl *CompiledLayout) Layout() *program.Layout { return cl.layout }

// CompileLayout compiles layout against ct's activation classes for the
// given geometry. The per-class resolution (base address → first line,
// span, conflict-free bit) is what a per-event replay would derive for
// every activation; compiling hoists it out of the walk so the engine
// pays one record load per event instead. The layout must place the
// program ct was compiled against.
func CompileLayout(cfg Config, ct *CompiledTrace, layout *program.Layout) (*CompiledLayout, error) {
	cl := &CompiledLayout{}
	if err := cl.Recompile(cfg, ct, layout); err != nil {
		return nil, err
	}
	return cl, nil
}

// Recompile is CompileLayout into cl, reusing its buffers: a caller that
// scores many candidate layouts one at a time (the exhaustive search)
// keeps one table and recompiles it per candidate without allocating once
// the buffers have grown.
func (cl *CompiledLayout) Recompile(cfg Config, ct *CompiledTrace, layout *program.Layout) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cl.compile(cfg, ct, layout)
	return nil
}

// compile is Recompile without the geometry check: cfg must be valid.
//
// The dense line index: a layout may place a procedure at any address, so
// per-line state sized by the highest line would cost memory in the
// address, not in the code the trace runs. compile merges the
// procedures' line ranges — each its widest class's, which covers the
// procedure's other classes — into disjoint runs, in address order, and
// numbers the lines of the runs consecutively. A line two classes share —
// one procedure at two extents, or neighbours meeting mid-line — lies in
// one run and so gets one index, which is what keeps its first touch a
// single cold miss. Sorting one range per procedure, not per class, keeps
// the compile O(classes + procedures·log procedures).
func (cl *CompiledLayout) compile(cfg Config, ct *CompiledTrace, layout *program.Layout) {
	ct.checkProgram(layout)
	cls := ct.classes
	cl.layout, cl.classes, cl.cfg = layout, cls, cfg
	cl.recs = grow(cl.recs, int64(len(cls.proc)))
	cl.runs = cl.runs[:0]
	lb := int64(cfg.LineBytes)
	limit := int64(cfg.NumLines())
	for c := range cl.recs {
		base := int64(layout.Addr(cls.proc[c]))
		ext := int64(cls.ext[c])
		first := base / lb
		span := (base+ext-1)/lb - first + 1
		cl.recs[c] = classRec{first: first, span: int32(span), free: span <= limit}
		if cls.lead[c] == int32(c) {
			cl.runs = append(cl.runs, lineRun{first: first, end: first + span, c: int32(c)})
		}
	}
	slices.SortFunc(cl.runs, func(a, b lineRun) int { return cmp.Compare(a.first, b.first) })
	// dense is the index of the current run's first line, [start, end)
	// its lines so far.
	var dense, start, end int64
	for k, r := range cl.runs {
		if k == 0 || r.first > end {
			dense += end - start
			start, end = r.first, r.end
		} else {
			end = max(end, r.end)
		}
		cl.recs[r.c].off = dense - start
	}
	cl.lines = dense + end - start
	for c, l := range cls.lead {
		cl.recs[c].off = cl.recs[l].off
	}
}

// blockShift sets the residency memo's invalidation granularity:
// 1<<blockShift sets per version block. Spans are typically a few lines,
// so a residency check reads one or two block versions.
const blockShift = 5

// BatchOptions configures one Run.
type BatchOptions struct {
	// Budgets, when non-empty, must have one entry per table and enables
	// early abandonment: table i's walk stops as soon as its running miss
	// count exceeds Budgets[i]. Misses only accumulate, so an abandoned
	// layout's final count would also have exceeded the budget — callers
	// comparing candidates against an incumbent with M misses pass M-1 and
	// lose no viable candidate. An abandoned layout's Stats are the
	// partial counts at that point and are flagged in
	// BatchResult.Abandoned.
	Budgets []int64
}

// BatchStats counts the engine's work for telemetry. A lane is one
// layout's walk of a trace: Lanes counts layouts scored, LaneEvents the
// events walked and LaneEventsSaved the events abandonment skipped.
// Deterministic for a given (trace, layouts, budgets), so counters built
// from it merge identically at any worker count.
type BatchStats struct {
	// Runs counts Run calls; Lanes the layouts scored across them.
	Runs  int64
	Lanes int64
	// AbandonedLanes counts walks stopped by a budget.
	AbandonedLanes int64
	// LaneEvents is the number of events actually walked, summed over
	// layouts; LaneEventsSaved is how many the full walks would have
	// added — events × layouts minus LaneEvents.
	LaneEvents      int64
	LaneEventsSaved int64
}

// Add merges other into b.
func (b *BatchStats) Add(other BatchStats) {
	b.Runs += other.Runs
	b.Lanes += other.Lanes
	b.AbandonedLanes += other.AbandonedLanes
	b.LaneEvents += other.LaneEvents
	b.LaneEventsSaved += other.LaneEventsSaved
}

// BatchResult is the outcome of one Run.
type BatchResult struct {
	// Stats[i] is table i's simulation statistics — byte-identical to
	// RunCompiled of the same layout unless its walk was abandoned, in
	// which case it holds the partial counts at that point (whose Misses
	// already exceed the table's budget).
	Stats []Stats
	// Abandoned[i] reports whether table i's walk stopped on its budget.
	Abandoned []bool
	// Batch is this run's work accounting.
	Batch BatchStats
}

// BatchSim is the compiled simulator: one cache's state, bound to one
// compiled layout at a time. The state is the direct-mapped tag array or,
// for set-associative geometries, per-set MRU-first LRU age vectors, plus
// epoch-stamped first-touch stamps for the cold/conflict split and the
// class-residency memo both walks consult. Buffers are reused across Bind
// and Run calls, so a search that scores thousands of candidates allocates
// per candidate only its Run result.
//
// A BatchSim is not safe for concurrent use; workers bring their own.
type BatchSim struct {
	cfg     Config
	numSets int64
	pow2    bool // numSets is a power of two: sets are indexed by mask
	assoc   int

	// classes is the bound layout's class table, nil until the first
	// Bind; cls holds the bound layout's records, copied at Bind, each
	// with its class's residency stamp.
	classes *classTable
	cls     []classState

	// dm[set] is the direct-mapped tag (-1 empty). For assoc > 1,
	// ways[set*assoc+w] holds the MRU-first tags of the set, -1 for an
	// empty way; the empty ways are the set's last.
	dm   []int64
	ways []int64
	// seen stamps each line of the bound layout, at its dense index, with
	// the epoch of its first reference. The epoch discipline makes Reset
	// O(tag state), not O(lines).
	seen  []uint32
	epoch uint32

	// Class-residency memo. A write is any change to a set's state: a
	// direct-mapped tag write (a miss) or, under LRU, any change to the
	// set's MRU-first order (a miss, or a hit below the MRU way; an MRU
	// hit changes nothing). A full walk of a conflict-free class leaves
	// every one of its lines resident, and walking it again from that
	// state is all hits that leave the same state (the §4c collapse
	// theorem; direct-mapped, the lines sit in distinct sets). So: every
	// write stamps its set's block in bver (1<<blockShift sets per block)
	// with the next value of the write counter wver, and a full walk of
	// a conflict-free class records the counter in its stamp. On the
	// class's next activation, bver ≤ stamp across the blocks of its
	// sets proves no write touched them since the walk — the walk would
	// be all hits with no state change, and the event settles in
	// O(blocks) instead of O(span). Block granularity only costs
	// precision (a write near a class's sets loses a skip), never
	// soundness. wver never repeats and Reset re-stamps every block with
	// a fresh value, so no stale stamp — a zero one from Bind, or one
	// left by a walk before a Reset — can claim residency.
	bver []int64
	wver int64

	stats Stats
	batch BatchStats
}

// classState is one class of the bound layout: its record and its
// residency stamp, side by side so an event reads one 32-byte record.
type classState struct {
	classRec
	stamp int64
}

// NewBatchSim creates a compiled simulator for the given configuration.
func NewBatchSim(cfg Config) (*BatchSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bs := &BatchSim{
		cfg:     cfg,
		numSets: int64(cfg.NumSets()),
		assoc:   cfg.Assoc,
		epoch:   1,
	}
	_, bs.pow2 = log2(bs.numSets)
	if bs.assoc == 1 {
		bs.dm = make([]int64, bs.numSets)
	} else {
		bs.ways = make([]int64, bs.numSets*int64(bs.assoc))
	}
	bs.bver = make([]int64, (bs.numSets+(1<<blockShift)-1)>>blockShift)
	return bs, nil
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

// MustNewBatchSim is NewBatchSim but panics on error.
func MustNewBatchSim(cfg Config) *BatchSim {
	bs, err := NewBatchSim(cfg)
	if err != nil {
		panic(err)
	}
	return bs
}

// Config returns the simulator's configuration.
func (bs *BatchSim) Config() Config { return bs.cfg }

// Batch returns the cumulative work counters across every run and replay
// since the simulator was created.
func (bs *BatchSim) Batch() BatchStats { return bs.batch }

// Bind attaches t as the simulator's layout and resets all simulated
// state. t must have been compiled for this configuration; Replay then
// accepts any view of t's compilation family.
func (bs *BatchSim) Bind(t *CompiledLayout) error {
	if t.cfg != bs.cfg {
		return fmt.Errorf("cache: layout compiled for %+v, simulator is %+v", t.cfg, bs.cfg)
	}
	bs.bind(t)
	return nil
}

// bind is Bind without the geometry check: O(classes) to copy t's records,
// then a Reset.
func (bs *BatchSim) bind(t *CompiledLayout) {
	bs.classes = t.classes
	bs.cls = grow(bs.cls, int64(len(t.recs)))
	for c, rec := range t.recs {
		bs.cls[c] = classState{classRec: rec}
	}
	// A fresh seen allocation starts at epoch 1 with zeroed stamps;
	// reusing a grown one relies on the epoch bump in Reset to retire
	// stale stamps.
	if int64(cap(bs.seen)) < t.lines {
		bs.seen = make([]uint32, t.lines)
		bs.epoch = 0 // Reset bumps to 1
	} else {
		bs.seen = bs.seen[:t.lines]
	}
	bs.Reset()
}

// grow returns s resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified until the caller
// initializes them.
func grow[T any](s []T, n int64) []T {
	if int64(cap(s)) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reset clears the simulated state and statistics, keeping the current
// binding. It is O(tag state), not O(address space): the first-touch
// stamps are retired by an epoch bump.
func (bs *BatchSim) Reset() {
	for i := range bs.dm {
		bs.dm[i] = -1
	}
	for i := range bs.ways {
		bs.ways[i] = -1
	}
	bs.stats = Stats{}
	// A fresh write version on every block outdates all residency stamps.
	bs.wver++
	for i := range bs.bver {
		bs.bver[i] = bs.wver
	}
	bs.epoch++
	if bs.epoch == 0 { // wraparound: actually clear the stamps
		for i := range bs.seen {
			bs.seen[i] = 0
		}
		bs.epoch = 1
	}
}

// Run scores tables one after another against ct: each is bound, reset
// and walked once, abandoning early under opts.Budgets[i] if given. Every
// table must have been compiled for this configuration against ct's
// compilation family. The per-table statistics are byte-identical to
// RunCompiled of each layout (abandoned walks report their partial
// counts).
func (bs *BatchSim) Run(ct *CompiledTrace, tables []*CompiledLayout, opts BatchOptions) (*BatchResult, error) {
	if len(opts.Budgets) != 0 && len(opts.Budgets) != len(tables) {
		return nil, fmt.Errorf("cache: %d budgets for %d tables", len(opts.Budgets), len(tables))
	}
	for i, t := range tables {
		if t.cfg != bs.cfg {
			return nil, fmt.Errorf("cache: table %d compiled for %+v, simulator is %+v", i, t.cfg, bs.cfg)
		}
		// Only a table from ct's compilation family (the same CompileTrace
		// call; Slices share their source's) has an entry for every class
		// index of ct, each describing the same class.
		if t.classes != ct.classes {
			return nil, fmt.Errorf("cache: table %d is not from the replayed trace's compilation family", i)
		}
	}
	res := &BatchResult{
		Stats:     make([]Stats, len(tables)),
		Abandoned: make([]bool, len(tables)),
		Batch:     BatchStats{Runs: 1, Lanes: int64(len(tables))},
	}
	for i, t := range tables {
		budget := int64(math.MaxInt64)
		if len(opts.Budgets) != 0 {
			budget = opts.Budgets[i]
		}
		bs.bind(t)
		walked, abandoned := bs.walk(ct, budget)
		res.Stats[i], res.Abandoned[i] = bs.stats, abandoned
		res.Batch.LaneEvents += int64(walked)
		res.Batch.LaneEventsSaved += int64(ct.Len() - walked)
		if abandoned {
			res.Batch.AbandonedLanes++
		}
	}
	bs.batch.Add(res.Batch)
	return res, nil
}

// runTable binds t, resets, and walks ct: Run for one table without the
// checks and result allocations, backing Sim's compiled runs (Sim
// compiles t against ct for its own geometry).
func (bs *BatchSim) runTable(ct *CompiledTrace, t *CompiledLayout) Stats {
	bs.bind(t)
	bs.walk(ct, math.MaxInt64)
	return bs.stats
}

// Replay walks ct against the bound layout WITHOUT resetting first and
// returns the statistics delta: cache contents, first-touch stamps and
// totals carry over from whatever ran before, so a sequence of Replay
// calls over consecutive Slices of one compilation is byte-identical to a
// single Run over the whole trace. This is the windowed entry point of
// the sampled evaluation path: a warm-up window is replayed first (its
// delta discarded), and misses on lines it touched count as conflict, not
// cold, exactly as they would mid-run. No budget applies.
func (bs *BatchSim) Replay(ct *CompiledTrace) (Stats, error) {
	if bs.classes == nil {
		return Stats{}, fmt.Errorf("cache: Replay before Bind")
	}
	if bs.classes != ct.classes { // as in Run
		return Stats{}, fmt.Errorf("cache: replayed trace is not from the bound compilation family")
	}
	before := bs.stats
	bs.walk(ct, math.MaxInt64)
	bs.batch.LaneEvents += int64(ct.Len())
	return Stats{
		Refs:   bs.stats.Refs - before.Refs,
		Misses: bs.stats.Misses - before.Misses,
		Cold:   bs.stats.Cold - before.Cold,
	}, nil
}

// walk replays ct against the bound layout from the current state,
// accumulating into bs.stats. It stops after the first event that takes
// the running miss count past budget, and returns the number of events
// walked and whether it stopped early.
func (bs *BatchSim) walk(ct *CompiledTrace, budget int64) (walked int, abandoned bool) {
	if bs.assoc == 1 {
		return bs.walkDM(ct, budget)
	}
	return bs.walkLRU(ct, budget)
}

// walkDM is the direct-mapped walk: per event, one event record and one
// class record. A resident class (see the memo fields) settles in O(1) or
// O(blocks); any other span is walked by the line loop, the tag compare.
// The collapse identity iters·span + (r−1)·span = r·span folds the
// reference count to one add. The set index is chosen once per span: by
// mask when the set count is a power of two (which also lets the compiler
// drop the tag array's bounds check), else by one % and a wrapping
// increment. A missing line takes its set, bumps the write version,
// stamps the set's block, and is cold on its first touch since Reset (at
// its dense index ln+off).
func (bs *BatchSim) walkDM(ct *CompiledTrace, budget int64) (int, bool) {
	cls := bs.cls
	refs := bs.stats.Refs
	for i, e := range ct.events {
		c := &cls[e.class]
		r, span := int64(e.reps), int64(c.span)
		refs += r * span
		if c.free {
			// stamp == wver means no write since the class was last
			// proven resident, so the span is still intact — the
			// steady-state one-compare fast path. Otherwise scan the
			// covering block versions and, on success, re-stamp so the
			// next check is again one compare. A resident class is all
			// hits with no state change: the budget cannot newly trip.
			if c.stamp == bs.wver {
				continue
			}
			if bs.clean(c.first, span, c.stamp) {
				c.stamp = bs.wver
				continue
			}
			r = 1
		}
		first, last, off := c.first, c.first+span, c.off
		dm, lbv, seen, epoch := bs.dm, bs.bver, bs.seen, bs.epoch
		wver, misses, cold := bs.wver, bs.stats.Misses, bs.stats.Cold
		for ; r > 0; r-- {
			if bs.pow2 {
				mask := int64(len(dm) - 1)
				for ln := first; ln < last; ln++ {
					if dm[ln&mask] != ln {
						dm[ln&mask] = ln
						wver++
						lbv[(ln&mask)>>blockShift] = wver
						misses++
						if seen[ln+off] != epoch {
							seen[ln+off] = epoch
							cold++
						}
					}
				}
				continue
			}
			sets := int64(len(dm))
			s := first % sets
			for ln := first; ln < last; ln++ {
				if dm[s] != ln {
					dm[s] = ln
					wver++
					lbv[s>>blockShift] = wver
					misses++
					if seen[ln+off] != epoch {
						seen[ln+off] = epoch
						cold++
					}
				}
				if s++; s == sets {
					s = 0
				}
			}
		}
		bs.wver, bs.stats.Misses, bs.stats.Cold = wver, misses, cold
		if c.free {
			c.stamp = wver
		}
		if misses > budget {
			bs.stats.Refs = refs
			return i + 1, true
		}
	}
	bs.stats.Refs = refs
	return len(ct.events), false
}

// clean reports whether no write version in the blocks covering the n
// consecutive sets from line first's set exceeds stamp. With a single
// version block any write since a stamp already invalidates it, so the
// scan only pays when blocks partition the sets.
func (bs *BatchSim) clean(first, n, stamp int64) bool {
	lbv, sets := bs.bver, bs.numSets
	if len(lbv) == 1 {
		return false
	}
	var s0 int64
	if bs.pow2 {
		s0 = first & (sets - 1)
	} else {
		s0 = first % sets
	}
	if end := s0 + n - 1; end >= sets {
		return blocksClean(lbv, stamp, s0, sets-1) && blocksClean(lbv, stamp, 0, end-sets)
	}
	return blocksClean(lbv, stamp, s0, s0+n-1)
}

// blocksClean reports whether no write version in the blocks covering
// sets [s0, s1] exceeds stamp.
func blocksClean(lbv []int64, stamp, s0, s1 int64) bool {
	for b := s0 >> blockShift; b <= s1>>blockShift; b++ {
		if lbv[b] > stamp {
			return false
		}
	}
	return true
}

// walkLRU is walkDM for set-associative geometries: per set, an MRU-first
// age vector with hit promotion and LRU eviction. Repeats collapse and
// resident classes settle as in walkDM, with a change to a set's order as
// the write; a conflict-free span holds up to assoc lines per set, so it
// covers min(span, sets) sets. The line loop is the way shift: a miss or a
// hit below the MRU way shifts the ways above it down one, in one loop
// that stops at the hit; an MRU hit changes nothing. The span's first set
// costs one mask or %, each later line a wrapping increment.
func (bs *BatchSim) walkLRU(ct *CompiledTrace, budget int64) (int, bool) {
	cls := bs.cls
	sets, assoc := bs.numSets, int64(bs.assoc)
	refs := bs.stats.Refs
	for i, e := range ct.events {
		c := &cls[e.class]
		r, span := int64(e.reps), int64(c.span)
		refs += r * span
		if c.free {
			if c.stamp == bs.wver {
				continue
			}
			if bs.clean(c.first, min(span, sets), c.stamp) {
				c.stamp = bs.wver
				continue
			}
			r = 1
		}
		first, last, off := c.first, c.first+span, c.off
		ways, lbv, seen, epoch := bs.ways, bs.bver, bs.seen, bs.epoch
		wver, misses, cold := bs.wver, bs.stats.Misses, bs.stats.Cold
		for ; r > 0; r-- {
			var s int64
			if bs.pow2 {
				s = first & (sets - 1)
			} else {
				s = first % sets
			}
			for ln := first; ln < last; ln++ {
				w := ways[s*assoc : s*assoc+assoc]
				set := s
				if s++; s == sets {
					s = 0
				}
				prev := w[0]
				if prev == ln {
					continue // MRU hit: the order stands
				}
				w[0] = ln
				hit := false
				for k := 1; k < len(w); k++ {
					tag := w[k]
					w[k] = prev
					if tag == ln {
						hit = true
						break
					}
					prev = tag
				}
				wver++
				lbv[set>>blockShift] = wver
				if hit {
					continue
				}
				misses++
				if seen[ln+off] != epoch {
					seen[ln+off] = epoch
					cold++
				}
			}
		}
		bs.wver, bs.stats.Misses, bs.stats.Cold = wver, misses, cold
		if c.free {
			c.stamp = wver
		}
		if misses > budget {
			bs.stats.Refs = refs
			return i + 1, true
		}
	}
	bs.stats.Refs = refs
	return len(ct.events), false
}

// access references line ln, whose dense index is idx, one line of walkDM
// or walkLRU on the engine's state with the same tag, LRU and first-touch
// rules, for walks that need the outcome of every line (the classified
// replay). A change to the set bumps the residency-memo versions as the
// walks' changes do, so the memo stays sound for later walks. It counts
// the miss, not the reference, and reports whether the line missed and
// whether that was its first touch.
func (bs *BatchSim) access(ln, idx int64) (miss, cold bool) {
	var set int64
	if bs.pow2 {
		set = ln & (bs.numSets - 1)
	} else {
		set = ln % bs.numSets
	}
	hit := false
	if bs.assoc == 1 {
		if bs.dm[set] == ln {
			return false, false
		}
		bs.dm[set] = ln
	} else {
		assoc := int64(bs.assoc)
		w := bs.ways[set*assoc : set*assoc+assoc]
		if w[0] == ln {
			return false, false
		}
		prev := ln
		for k, tag := range w {
			w[k] = prev
			if tag == ln {
				hit = true
				break
			}
			prev = tag
		}
	}
	bs.wver++
	bs.bver[set>>blockShift] = bs.wver
	if hit {
		return false, false
	}
	bs.stats.Misses++
	if bs.seen[idx] == bs.epoch {
		return true, false
	}
	bs.seen[idx] = bs.epoch
	bs.stats.Cold++
	return true, true
}
