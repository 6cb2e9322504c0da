package cache

import (
	"fmt"
	"math"

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
// accesses, including the §4c repeat collapse, which costs two array loads
// per event because a class's placed span and conflict-freedom are
// precomputed per layout by CompileLayout.
//
// Early abandonment rides on miss-count monotonicity: the running miss
// count only grows as the walk proceeds, so once it exceeds a
// caller-supplied budget (e.g. an incumbent's final count) the final
// count must exceed it too and the walk can stop.

// CompiledLayout is a layout compiled against a CompiledTrace's activation
// classes for one cache geometry: per class, the placed first line, the
// line span, and whether the span is self-conflict-free (span ≤ NumLines,
// the §4c collapse criterion). One table serves every replay of the
// layout against any view — full trace or Slice — sharing the class table
// it was compiled from. Immutable after CompileLayout returns and safe
// for concurrent use.
type CompiledLayout struct {
	layout  *program.Layout
	classes *classTable
	cfg     Config
	first   []int64 // per class: first placed line (line-granular address)
	span    []int64 // per class: number of consecutive lines referenced
	free    []bool  // per class: span self-conflict-free in this geometry
	lines   int64   // 1 + the largest line any class touches (seen sizing)
}

// Layout returns the layout the table was compiled from.
func (cl *CompiledLayout) Layout() *program.Layout { return cl.layout }

// CompileLayout compiles layout against ct's activation classes for the
// given geometry. The per-class resolution (base address → first line,
// span, conflict-free bit) is what a per-event replay would derive for
// every activation; compiling hoists it out of the walk so the engine
// pays two array loads per event instead. The layout must place the
// program ct was compiled against.
func CompileLayout(cfg Config, ct *CompiledTrace, layout *program.Layout) (*CompiledLayout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cl := &CompiledLayout{}
	cl.compile(cfg, ct, layout)
	return cl, nil
}

// compile fills cl for layout, reusing its per-class arrays when their
// capacity suffices. cfg must be valid.
func (cl *CompiledLayout) compile(cfg Config, ct *CompiledTrace, layout *program.Layout) {
	ct.checkProgram(layout)
	nc := int64(ct.NumClasses())
	cl.layout, cl.classes, cl.cfg, cl.lines = layout, ct.classes, cfg, 0
	cl.first = grow(cl.first, nc)
	cl.span = grow(cl.span, nc)
	cl.free = grow(cl.free, nc)
	lb := int64(cfg.LineBytes)
	limit := int64(cfg.NumLines())
	for c := range cl.first {
		base := int64(layout.Addr(ct.classes.proc[c]))
		ext := int64(ct.classes.ext[c])
		first := base / lb
		span := (base+ext-1)/lb - first + 1
		cl.first[c] = first
		cl.span[c] = span
		cl.free[c] = span <= limit
		if end := first + span; end > cl.lines {
			cl.lines = end
		}
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
// per candidate only its compiled table and result.
//
// A BatchSim is not safe for concurrent use; workers bring their own.
type BatchSim struct {
	cfg     Config
	numSets int64
	pow2    bool // numSets is a power of two: sets are indexed by mask
	assoc   int

	// tab is the bound layout; nil until the first Bind.
	tab *CompiledLayout

	// dm[set] is the direct-mapped tag (-1 empty). For assoc > 1,
	// ways[set*assoc+w] holds the MRU-first tags of the set, -1 for an
	// empty way; the empty ways are the set's last.
	dm   []int64
	ways []int64
	// seen stamps each line address of the bound layout with the epoch of
	// its first reference. The epoch discipline makes Reset O(tag state),
	// not O(address space).
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
	// a conflict-free class records the counter in resStamp[c]. On the
	// class's next activation, bver ≤ resStamp across the blocks of its
	// sets proves no write touched them since the walk — the walk would
	// be all hits with no state change, and the event settles in
	// O(blocks) instead of O(span). Block granularity only costs
	// precision (a write near a class's sets loses a skip), never
	// soundness. wver never repeats and Reset re-stamps every block with
	// a fresh value, so stale resStamp entries — including those left in
	// a reused buffer by an earlier binding — can never claim residency.
	resStamp []int64
	bver     []int64
	wver     int64

	stats Stats
	batch BatchStats
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

// bind is Bind without the geometry check.
func (bs *BatchSim) bind(t *CompiledLayout) {
	bs.tab = t
	// A fresh seen allocation starts at epoch 1 with zeroed stamps;
	// reusing a grown one relies on the epoch bump in Reset to retire
	// stale stamps.
	if int64(cap(bs.seen)) < t.lines {
		bs.seen = make([]uint32, t.lines)
		bs.epoch = 0 // Reset bumps to 1
	} else {
		bs.seen = bs.seen[:t.lines]
	}
	// Grown resStamp contents are arbitrary; the fresh block versions
	// Reset draws make any stale stamp a non-match.
	bs.resStamp = grow(bs.resStamp, int64(len(t.first)))
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
		res.Batch.LaneEventsSaved += int64(ct.n - walked)
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
	if bs.tab == nil {
		return Stats{}, fmt.Errorf("cache: Replay before Bind")
	}
	if bs.tab.classes != ct.classes { // as in Run
		return Stats{}, fmt.Errorf("cache: replayed trace is not from the bound compilation family")
	}
	before := bs.stats
	bs.walk(ct, math.MaxInt64)
	bs.batch.LaneEvents += int64(ct.n)
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

// walkDM is the direct-mapped walk. A resident class (see the memo
// fields) settles in O(1); otherwise the span walks against stride-1
// tags. The collapse identity iters·span + (r−1)·span = r·span folds the
// reference count to one add. The power-of-two set count is chosen once
// per span, not per line: each branch has its own line loop, and the
// mask form lets the compiler drop the tag array's bounds check.
func (bs *BatchSim) walkDM(ct *CompiledTrace, budget int64) (int, bool) {
	t := bs.tab
	firstA, spanA, freeA := t.first, t.span, t.free
	stamp := bs.resStamp
	dm := bs.dm
	sets := int64(len(dm))
	mask := int64(len(dm) - 1)
	pow2 := bs.pow2
	lbv := bs.bver
	// With a single version block any write since a stamp already
	// invalidates it, so the block scan only pays when blocks partition
	// the sets.
	multiBlock := len(lbv) > 1
	seen, epoch := bs.seen, bs.epoch
	refs, misses, cold := bs.stats.Refs, bs.stats.Misses, bs.stats.Cold
	wver := bs.wver
	walked, abandoned := ct.n, false
	for i, c := range ct.classOf {
		r := int64(ct.reps[i])
		span, first, free := spanA[c], firstA[c], freeA[c]
		if free {
			// stamp == wver means no tag write since the class was last
			// proven resident, so the span is still intact — the
			// steady-state one-compare fast path. Otherwise scan the
			// covering block versions and, on success, re-stamp so the
			// next check is again one compare.
			sv := stamp[c]
			resident := sv == wver
			if !resident && multiBlock {
				var s0 int64
				if pow2 {
					s0 = first & mask
				} else {
					s0 = first % sets
				}
				if end := s0 + span - 1; end < sets {
					resident = blocksClean(lbv, sv, s0, end)
				} else {
					resident = blocksClean(lbv, sv, s0, sets-1) &&
						blocksClean(lbv, sv, 0, end-sets)
				}
				if resident {
					stamp[c] = wver
				}
			}
			if resident {
				// All hits, no state change, no new misses — the budget
				// cannot newly trip.
				refs += r * span
				continue
			}
		}
		iters := r
		if r > 1 && free {
			iters = 1
		}
		last := first + span
		for it := int64(0); it < iters; it++ {
			if pow2 {
				for ln := first; ln < last; ln++ {
					if dm[ln&mask] != ln {
						dm[ln&mask] = ln
						wver++
						lbv[(ln&mask)>>blockShift] = wver
						misses++
						if seen[ln] != epoch {
							seen[ln] = epoch
							cold++
						}
					}
				}
				continue
			}
			for ln := first; ln < last; ln++ {
				s := ln % sets
				if dm[s] != ln {
					dm[s] = ln
					wver++
					lbv[s>>blockShift] = wver
					misses++
					if seen[ln] != epoch {
						seen[ln] = epoch
						cold++
					}
				}
			}
		}
		if free {
			stamp[c] = wver
		}
		refs += r * span
		if misses > budget {
			walked, abandoned = i+1, true
			break
		}
	}
	bs.stats = Stats{Refs: refs, Misses: misses, Cold: cold}
	bs.wver = wver
	return walked, abandoned
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

// walkLRU is walkDM for set-associative geometries: per set, an
// MRU-first age vector with hit promotion and LRU eviction. Repeats
// collapse and resident classes settle as in walkDM, with a change to a
// set's order as the write; a conflict-free span holds up to assoc lines
// per set, so it covers min(span, sets) sets. A miss or a hit below the
// MRU way shifts the ways above it down one, in one loop that stops at
// the hit.
func (bs *BatchSim) walkLRU(ct *CompiledTrace, budget int64) (int, bool) {
	t := bs.tab
	firstA, spanA, freeA := t.first, t.span, t.free
	stamp := bs.resStamp
	sets := bs.numSets
	mask, pow2 := sets-1, bs.pow2
	assoc := int64(bs.assoc)
	ways := bs.ways
	lbv := bs.bver
	multiBlock := len(lbv) > 1
	seen, epoch := bs.seen, bs.epoch
	refs, misses, cold := bs.stats.Refs, bs.stats.Misses, bs.stats.Cold
	wver := bs.wver
	walked, abandoned := ct.n, false
	for i, c := range ct.classOf {
		r := int64(ct.reps[i])
		span, first, free := spanA[c], firstA[c], freeA[c]
		if free {
			sv := stamp[c]
			resident := sv == wver
			if !resident && multiBlock {
				var s0 int64
				if pow2 {
					s0 = first & mask
				} else {
					s0 = first % sets
				}
				if end := s0 + min(span, sets) - 1; end < sets {
					resident = blocksClean(lbv, sv, s0, end)
				} else {
					resident = blocksClean(lbv, sv, s0, sets-1) &&
						blocksClean(lbv, sv, 0, end-sets)
				}
				if resident {
					stamp[c] = wver
				}
			}
			if resident {
				refs += r * span
				continue
			}
		}
		iters := r
		if r > 1 && free {
			iters = 1
		}
		last := first + span
		for it := int64(0); it < iters; it++ {
			for ln := first; ln < last; ln++ {
				var set int64
				if pow2 {
					set = ln & mask
				} else {
					set = ln % sets
				}
				w := ways[set*assoc : set*assoc+assoc]
				if w[0] == ln {
					continue // MRU hit: the order stands
				}
				prev, hit := ln, false
				for k, tag := range w {
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
				if seen[ln] != epoch {
					seen[ln] = epoch
					cold++
				}
			}
		}
		if free {
			stamp[c] = wver
		}
		refs += r * span
		if misses > budget {
			walked, abandoned = i+1, true
			break
		}
	}
	bs.stats = Stats{Refs: refs, Misses: misses, Cold: cold}
	bs.wver = wver
	return walked, abandoned
}

// access references line ln, one line of walkDM or walkLRU on the engine's
// state with the same tag, LRU and first-touch rules, for walks that need
// the outcome of every line (the classified replay). A change to the set
// bumps the residency-memo versions as the walks' changes do, so the memo
// stays sound for later walks. It counts the miss, not the reference, and
// reports whether the line missed and whether that was its first touch.
func (bs *BatchSim) access(ln int64) (miss, cold bool) {
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
	if bs.seen[ln] == bs.epoch {
		return true, false
	}
	bs.seen[ln] = bs.epoch
	bs.stats.Cold++
	return true, true
}
