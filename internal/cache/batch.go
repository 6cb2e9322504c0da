package cache

import (
	"fmt"
	"math"

	"repro/internal/program"
)

// This file implements the compiled replay engine: one walk of a shared
// CompiledTrace scores K candidate layouts at once, and Sim's compiled
// runs are the K = 1 case. Replaying the trace once per layout would
// stream the compiled event arrays K times; at paper scale those arrays
// dwarf every cache level while a lane's simulated tag state is a few
// kilobytes. The engine's loop nest is events outer, lanes inner, so the
// trace streams through memory once and the K lane states stay resident,
// and every layout-independent per-event decision (class lookup, repeat
// count) is hoisted out of the per-lane work entirely.
//
// Per-lane statistics are byte-identical to the per-reference RunTrace
// oracle: each lane performs exactly the reference stream's accesses
// against its own state, including the §4c repeat collapse, which becomes
// two array loads per (event, lane) because a class's placed span and
// conflict-freedom are precomputed per layout by CompileLayout.
//
// Early abandonment rides on miss-count monotonicity: a lane's running
// miss count only grows as the walk proceeds, so once it exceeds a
// caller-supplied budget (e.g. an incumbent's final count) the lane's
// final count must exceed it too and the lane can retire mid-walk. The
// surviving lanes' statistics are unaffected — lanes share no simulated
// state.

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
// pays two array loads per (event, lane) instead. The layout must place
// the program ct was compiled against.
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

// BatchOptions configures one batched run.
type BatchOptions struct {
	// Budgets, when non-empty, must have one entry per lane and enables
	// early abandonment: lane i retires as soon as its running miss count
	// exceeds Budgets[i]. Misses only accumulate, so a retired lane's
	// final count would also have exceeded the budget — callers comparing
	// candidates against an incumbent with M misses pass M-1 and lose no
	// viable candidate. A retired lane's Stats are the partial counts at
	// retirement and are flagged in BatchResult.Abandoned.
	Budgets []int64
}

// BatchStats counts one batched run's work for telemetry: lane volume,
// abandonment, and the lane-events actually walked versus saved (by
// abandonment retiring lanes before the walk ended). Deterministic for a
// given (trace, layouts, budgets), so counters built from it merge
// identically at any worker count.
type BatchStats struct {
	// Runs counts Run calls; Lanes the layouts scored across them.
	Runs  int64
	Lanes int64
	// AbandonedLanes counts lanes retired by a budget.
	AbandonedLanes int64
	// LaneEvents is the number of (event, lane) units actually walked;
	// LaneEventsSaved is how many the full walk would have added —
	// events × lanes minus LaneEvents.
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

// BatchResult is the outcome of one batched run.
type BatchResult struct {
	// Stats[i] is lane i's simulation statistics — byte-identical to
	// RunCompiled of the same layout unless the lane was abandoned, in
	// which case it holds the partial counts at retirement (whose Misses
	// already exceed the lane's budget).
	Stats []Stats
	// Abandoned[i] reports whether lane i retired on its budget.
	Abandoned []bool
	// Batch is this run's work accounting.
	Batch BatchStats
}

// BatchSim replays one compiled trace against K layouts at once,
// maintaining the K simulated cache states in structure-of-arrays form:
// lane-major direct-mapped tag arrays, per-lane LRU age vectors for
// set-associative geometries, and per-lane epoch-stamped first-touch
// stamps for the cold/conflict split. Buffers grow once and are reused
// across Bind/Run calls, so a search that scores thousands of candidates
// in batches allocates per batch only the result slices.
//
// A BatchSim is not safe for concurrent use; workers bring their own.
type BatchSim struct {
	cfg       Config
	numSets   int64
	setMask   int64
	setMaskOK bool
	assoc     int

	// Current binding: K lanes over one class-table family.
	tabs    []*CompiledLayout
	classes *classTable
	ncls    int

	// Tag state is lane-major: dm[lane*numSets+set] is lane's
	// direct-mapped tag (-1 empty), so a lane's span walk probes
	// consecutive words while the K lane regions stay disjoint and hot.
	// For assoc > 1, ways[(lane*numSets+set)*assoc+w] holds the MRU-first
	// tags of the set and wlen[lane*numSets+set] how many are valid.
	dm   []int64
	ways []int64
	wlen []int32
	// seen is the per-lane first-touch stamp store: lane i owns
	// seen[seenOff[i] : seenOff[i]+tabs[i].lines], indexed by line
	// address. The epoch discipline makes Reset O(state), as in Sim.
	seen    []uint32
	seenOff []int64
	epoch   uint32

	// Class-residency memo (direct-mapped lanes only). A direct-mapped
	// tag write happens only on a miss, and a full walk of a
	// conflict-free class leaves every one of its lines resident
	// (distinct sets); the lines then stay resident until a later write
	// hits one of the class's sets. So: every tag write stamps its set's
	// block in bver (lane-major, blockSets sets per block) with the
	// next value of the global write counter wver, and a full walk of a
	// conflict-free class records the counter in resStamp[lane*ncls+c]. On
	// the class's next activation, bver ≤ resStamp across its set blocks
	// proves no write touched its sets since the walk — every line is
	// still resident, the walk would be all hits with no state change,
	// and the lane settles the event in O(blocks) instead of O(span).
	// Block granularity only costs precision (a write near a class's
	// sets loses a skip), never soundness. wver never repeats and Reset
	// re-stamps every block with a fresh value, so stale resStamp
	// entries — including those left in a reused buffer by an earlier
	// binding — can never claim residency. Unsound for LRU lanes, where
	// hits promote and a skipped walk would diverge; those never
	// consult the memo.
	resStamp []int64
	bver     []int64
	wver     int64
	nblocks  int64

	stats []Stats
	alive []bool
	// active lists live lane indices in ascending order.
	active []int

	batch BatchStats
}

// NewBatchSim creates a batched simulator for the given configuration.
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
	if _, ok := log2(bs.numSets); ok {
		bs.setMask, bs.setMaskOK = bs.numSets-1, true
	}
	bs.nblocks = (bs.numSets + (1 << blockShift) - 1) >> blockShift
	return bs, nil
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

// Bind attaches tables as the simulator's lanes and resets all simulated
// state. Every table must have been compiled for this configuration, and
// all against the same compilation family (the same CompileTrace call —
// Slices share their source's family).
func (bs *BatchSim) Bind(tables []*CompiledLayout) error {
	for i, t := range tables {
		if t.cfg != bs.cfg {
			return fmt.Errorf("cache: lane %d compiled for %+v, batch simulator is %+v", i, t.cfg, bs.cfg)
		}
		if i > 0 && t.classes != tables[0].classes {
			return fmt.Errorf("cache: lane %d compiled against a different trace compilation than lane 0", i)
		}
	}
	bs.tabs = append(bs.tabs[:0], tables...)
	bs.classes = nil
	if len(tables) > 0 {
		bs.classes = tables[0].classes
	}
	k := len(tables)
	nc := 0
	if bs.classes != nil {
		nc = len(bs.classes.proc)
	}
	bs.ncls = nc
	bs.dm = grow(bs.dm, bs.numSets*int64(k))
	if bs.assoc > 1 {
		bs.ways = grow(bs.ways, bs.numSets*int64(k)*int64(bs.assoc))
		bs.wlen = grow(bs.wlen, bs.numSets*int64(k))
	}
	bs.seenOff = grow(bs.seenOff, int64(k))
	var total int64
	for i, t := range tables {
		bs.seenOff[i] = total
		total += t.lines
	}
	// A fresh seen allocation starts at epoch 1 with zeroed stamps;
	// reusing a grown one relies on the epoch bump in Reset to retire
	// stale stamps, exactly like Sim.
	if int64(cap(bs.seen)) < total {
		bs.seen = make([]uint32, total)
		bs.epoch = 0 // Reset bumps to 1
	} else {
		bs.seen = bs.seen[:total]
	}
	bs.stats = grow(bs.stats, int64(k))
	bs.alive = grow(bs.alive, int64(k))
	// Grown resStamp contents are arbitrary; the fresh block versions
	// Reset draws make any stale stamp a non-match.
	bs.resStamp = grow(bs.resStamp, int64(nc*k))
	bs.bver = grow(bs.bver, bs.nblocks*int64(k))
	bs.Reset()
	return nil
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

// Reset clears every lane's simulated state and statistics, keeping the
// current binding. Like Sim.Reset it is O(tag state), not O(address
// space): the first-touch stamps are retired by an epoch bump.
func (bs *BatchSim) Reset() {
	if bs.assoc == 1 {
		for i := range bs.dm {
			bs.dm[i] = -1
		}
	} else {
		for i := range bs.wlen {
			bs.wlen[i] = 0
		}
	}
	for i := range bs.stats {
		bs.stats[i] = Stats{}
		bs.alive[i] = true
	}
	// A fresh write version on every block outdates all residency stamps.
	bs.wver++
	for i := range bs.bver {
		bs.bver[i] = bs.wver
	}
	bs.active = bs.active[:0]
	for i := range bs.tabs {
		bs.active = append(bs.active, i)
	}
	bs.epoch++
	if bs.epoch == 0 { // wraparound: actually clear the stamps
		for i := range bs.seen {
			bs.seen[i] = 0
		}
		bs.epoch = 1
	}
}

// Run binds tables, resets, and walks ct once for all lanes, applying
// opts.Budgets if given. The returned per-lane statistics are
// byte-identical to RunCompiled of each layout (abandoned lanes report
// their partial counts). One Run on K lanes replaces K one-lane runs.
func (bs *BatchSim) Run(ct *CompiledTrace, tables []*CompiledLayout, opts BatchOptions) (*BatchResult, error) {
	if len(opts.Budgets) != 0 && len(opts.Budgets) != len(tables) {
		return nil, fmt.Errorf("cache: %d budgets for %d lanes", len(opts.Budgets), len(tables))
	}
	if err := bs.Bind(tables); err != nil {
		return nil, err
	}
	before := bs.batch
	bs.batch.Runs++
	bs.batch.Lanes += int64(len(tables))
	bs.replay(ct, opts.Budgets)
	res := &BatchResult{
		Stats:     append([]Stats(nil), bs.stats...),
		Abandoned: make([]bool, len(tables)),
	}
	for i, a := range bs.alive {
		if !a {
			res.Abandoned[i] = true
			bs.batch.AbandonedLanes++
		}
	}
	d := bs.batch
	d.Runs -= before.Runs
	d.Lanes -= before.Lanes
	d.AbandonedLanes -= before.AbandonedLanes
	d.LaneEvents -= before.LaneEvents
	d.LaneEventsSaved -= before.LaneEventsSaved
	res.Batch = d
	return res, nil
}

// runLane binds t as the only lane, resets, and walks ct: a one-lane Run
// without the result allocations, backing Sim's compiled runs.
func (bs *BatchSim) runLane(ct *CompiledTrace, t *CompiledLayout) Stats {
	// Bind cannot fail: t is the only lane and Sim compiles it for bs's
	// own geometry.
	_ = bs.Bind([]*CompiledLayout{t})
	bs.replay(ct, nil)
	return bs.stats[0]
}

// Replay walks ct for the currently bound lanes WITHOUT resetting first
// and returns each lane's statistics delta: cache contents, first-touch
// stamps and totals carry over from whatever ran before, so a sequence of
// Replay calls over consecutive Slices of one compilation is
// byte-identical per lane to a single Run over the whole trace. This is
// the windowed entry point of the sampled evaluation path: a warm-up
// window is replayed first (its delta discarded), and misses on lines it
// touched count as conflict, not cold, exactly as they would mid-run.
// Budgets do not apply; every lane stays live.
func (bs *BatchSim) Replay(ct *CompiledTrace) ([]Stats, error) {
	if len(bs.tabs) > 0 && ct.classes != bs.classes {
		return nil, fmt.Errorf("cache: replayed trace is not from the bound compilation family")
	}
	deltas := append([]Stats(nil), bs.stats...)
	bs.replay(ct, nil)
	for i := range deltas {
		deltas[i] = Stats{
			Refs:   bs.stats[i].Refs - deltas[i].Refs,
			Misses: bs.stats[i].Misses - deltas[i].Misses,
			Cold:   bs.stats[i].Cold - deltas[i].Cold,
		}
	}
	return deltas, nil
}

// replay is the shared walk: events outer, live lanes inner. budgets nil
// disables abandonment. Lane state and statistics accumulate into the
// bound buffers. The budget-free direct-mapped pow2 walk — the shape of
// every batch except the exhaustive search's — takes a specialized loop
// with no active-list or budget overhead per (event, lane).
func (bs *BatchSim) replay(ct *CompiledTrace, budgets []int64) {
	n := ct.n
	if n == 0 || len(bs.active) == 0 {
		bs.batch.LaneEventsSaved += int64(n) * int64(len(bs.tabs))
		return
	}
	k := len(bs.tabs)
	if len(bs.active) == k && bs.assoc == 1 && bs.setMaskOK {
		bs.replayFastDM(ct, budgets)
		return
	}
	classOf, reps := ct.classOf, ct.reps
	dmLane := bs.assoc == 1
	for i := 0; i < n; i++ {
		if len(bs.active) == 0 {
			// Every lane retired: the rest of the walk is saved.
			bs.batch.LaneEventsSaved += int64(n-i) * int64(k)
			return
		}
		bs.batch.LaneEvents += int64(len(bs.active))
		bs.batch.LaneEventsSaved += int64(k - len(bs.active))
		c := int(classOf[i])
		r := int64(reps[i])
		// retire shrinks bs.active in place, so the loop re-reads its
		// length every iteration rather than holding a stale header.
		for li := 0; li < len(bs.active); {
			lane := bs.active[li]
			t := bs.tabs[lane]
			span := t.span[c]
			first := t.first[c]
			free := t.free[c]
			st := &bs.stats[lane]
			if dmLane && free && bs.classResident(lane, c, first, span) {
				// Resident class: all hits, no state change, no new
				// misses — the budget cannot newly trip.
				st.Refs += r * span
				li++
				continue
			}
			iters := r
			if r > 1 && free {
				iters = 1
			}
			if dmLane {
				bs.walkDM(lane, first, span, iters, st)
				if free {
					bs.resStamp[lane*bs.ncls+c] = bs.wver
				}
			} else {
				bs.walkLRU(lane, first, span, iters, st)
			}
			st.Refs += iters * span
			if iters != r {
				st.Refs += (r - 1) * span
			}
			if budgets != nil && st.Misses > budgets[lane] {
				bs.retire(li)
				continue // bs.active shrank; li now names the next lane
			}
			li++
		}
	}
}

// chunkEvents is the event-block size of the fast walk's loop blocking:
// lanes iterate outer within a chunk, so one lane's registers and tables
// stay live across the whole block while the block's trace arrays stay in
// the fastest cache level for every lane.
const chunkEvents = 4096

// replayFastDM is the direct-mapped pow2 walk taken by every batch that
// starts with all lanes live. The walk is blocked — chunks of events
// outer, lanes middle, the chunk's events inner — which amortizes all
// per-lane setup (table bases, tag region, counters) over a chunk and
// re-streams only the chunk-sized trace window per lane. Lanes share no
// state, so the interchange cannot change any lane's statistics. A
// resident class (see the memo fields) settles in O(1); otherwise the
// span walks against stride-1 tags. Statistics are byte-identical to the
// generic walk; the collapse identity iters·span + (r−1)·span = r·span
// folds the reference count to one add. A lane whose miss count exceeds
// its budget retires after the offending event exactly as in the generic
// walk — the budget compare is one register test per event, and a
// retired lane drops out of every later chunk.
func (bs *BatchSim) replayFastDM(ct *CompiledTrace, budgets []int64) {
	n := ct.n
	k := len(bs.tabs)
	classOf, reps := ct.classOf, ct.reps
	nc := bs.ncls
	nblocks := bs.nblocks
	multiBlock := nblocks > 1
	sets := bs.numSets
	epoch := bs.epoch
	for lo := 0; lo < n; lo += chunkEvents {
		hi := min(lo+chunkEvents, n)
		for lane := 0; lane < k; lane++ {
			if !bs.alive[lane] {
				continue
			}
			budget := int64(math.MaxInt64)
			if budgets != nil {
				budget = budgets[lane]
			}
			t := bs.tabs[lane]
			firstA, spanA, freeA := t.first, t.span, t.free
			stamp := bs.resStamp[lane*nc : lane*nc+nc]
			dm := bs.dm[int64(lane)*sets : int64(lane)*sets+sets]
			mask := int64(len(dm) - 1)
			lbv := bs.bver[int64(lane)*nblocks : int64(lane)*nblocks+nblocks]
			seen := bs.seen[bs.seenOff[lane]:]
			st := &bs.stats[lane]
			refs, misses, cold := st.Refs, st.Misses, st.Cold
			wver := bs.wver
			for i := lo; i < hi; i++ {
				c := classOf[i]
				r := int64(reps[i])
				span := spanA[c]
				free := freeA[c]
				first := firstA[c]
				if free {
					// stamp == wver means no tag write anywhere in the
					// lane since the class was last proven resident, so
					// the span is still intact — the steady-state one-
					// compare fast path. Otherwise scan the covering
					// block versions and, on success, re-stamp so the
					// next check is again one compare.
					sv := stamp[c]
					resident := sv == wver
					if !resident && multiBlock {
						// With a single version block any write since the
						// stamp already invalidates it, so the block scan
						// only pays when blocks partition the sets.
						s0 := first & mask
						end := s0 + span - 1
						if end < sets {
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
				}
				if free {
					stamp[c] = wver
				}
				refs += r * span
				if misses > budget {
					// The running count already exceeds the budget: this
					// lane cannot beat the caller's incumbent. Events
					// walked so far (through i) count as lane work; the
					// rest of the trace is saved.
					bs.retireLane(lane)
					bs.batch.LaneEvents += int64(i + 1)
					bs.batch.LaneEventsSaved += int64(n - i - 1)
					break
				}
			}
			st.Refs, st.Misses, st.Cold = refs, misses, cold
			// Hand the write counter to the next lane: values stay
			// globally unique and monotone.
			bs.wver = wver
		}
	}
	for lane := 0; lane < k; lane++ {
		if bs.alive[lane] {
			bs.batch.LaneEvents += int64(n)
		}
	}
}

// retireLane removes lane from the active list and marks it dead.
func (bs *BatchSim) retireLane(lane int) {
	bs.alive[lane] = false
	for li, l := range bs.active {
		if l == lane {
			bs.active = append(bs.active[:li], bs.active[li+1:]...)
			return
		}
	}
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

// classResident reports whether every line of class c's conflict-free
// span starting at first is provably still resident in lane's
// direct-mapped state (no write has touched the span's set blocks since
// the class's stamp).
func (bs *BatchSim) classResident(lane, c int, first, span int64) bool {
	stamp := bs.resStamp[lane*bs.ncls+c]
	if stamp == bs.wver {
		// No write anywhere in the lane since the class was last proven
		// resident — the steady-state one-compare case.
		return true
	}
	sets := bs.numSets
	var s0 int64
	if bs.setMaskOK {
		s0 = first & bs.setMask
	} else {
		s0 = first % sets
	}
	lbv := bs.bver[int64(lane)*bs.nblocks : int64(lane)*bs.nblocks+bs.nblocks]
	var resident bool
	if end := s0 + span - 1; end < sets {
		resident = blocksClean(lbv, stamp, s0, end)
	} else {
		resident = blocksClean(lbv, stamp, s0, sets-1) && blocksClean(lbv, stamp, 0, end-sets)
	}
	if resident {
		// Re-stamp so the next check is again one compare.
		bs.resStamp[lane*bs.ncls+c] = bs.wver
	}
	return resident
}

// walkDM performs iters sweeps of the span [first, first+span) against
// lane's direct-mapped tags, updating misses and the cold split in st and
// stamping written set blocks for the residency memo. References are
// accounted by the caller in one add.
func (bs *BatchSim) walkDM(lane int, first, span, iters int64, st *Stats) {
	sets := bs.numSets
	dm := bs.dm[int64(lane)*sets : int64(lane)*sets+sets]
	lbv := bs.bver[int64(lane)*bs.nblocks : int64(lane)*bs.nblocks+bs.nblocks]
	seen := bs.seen[bs.seenOff[lane]:]
	epoch := bs.epoch
	last := first + span
	if bs.setMaskOK {
		mask := int64(len(dm) - 1)
		for it := int64(0); it < iters; it++ {
			for ln := first; ln < last; ln++ {
				if dm[ln&mask] != ln {
					dm[ln&mask] = ln
					bs.wver++
					lbv[(ln&mask)>>blockShift] = bs.wver
					st.Misses++
					if seen[ln] != epoch {
						seen[ln] = epoch
						st.Cold++
					}
				}
			}
		}
		return
	}
	for it := int64(0); it < iters; it++ {
		for ln := first; ln < last; ln++ {
			idx := ln % sets
			if dm[idx] != ln {
				dm[idx] = ln
				bs.wver++
				lbv[idx>>blockShift] = bs.wver
				st.Misses++
				if seen[ln] != epoch {
					seen[ln] = epoch
					st.Cold++
				}
			}
		}
	}
}

// walkLRU is walkDM for set-associative geometries: per set and lane, an
// MRU-first age vector with the same hit-promotion and evict-LRU rules as
// Sim.Access.
func (bs *BatchSim) walkLRU(lane int, first, span, iters int64, st *Stats) {
	sets := bs.numSets
	mask, maskOK := bs.setMask, bs.setMaskOK
	assoc := int64(bs.assoc)
	ways, wlen := bs.ways, bs.wlen
	laneBase := int64(lane) * sets
	seen := bs.seen[bs.seenOff[lane]:]
	epoch := bs.epoch
	misses, cold := st.Misses, st.Cold
	last := first + span
	for it := int64(0); it < iters; it++ {
	lines:
		for ln := first; ln < last; ln++ {
			var set int64
			if maskOK {
				set = ln & mask
			} else {
				set = ln % sets
			}
			slot := laneBase + set
			base := slot * assoc
			l := int64(wlen[slot])
			valid := ways[base : base+l]
			for w, tag := range valid {
				if tag == ln {
					copy(valid[1:w+1], valid[:w])
					valid[0] = ln
					continue lines
				}
			}
			misses++
			if seen[ln] != epoch {
				seen[ln] = epoch
				cold++
			}
			if l < assoc {
				l++
				wlen[slot] = int32(l)
			}
			copy(ways[base+1:base+l], ways[base:base+l-1])
			ways[base] = ln
		}
	}
	st.Misses, st.Cold = misses, cold
}

// retire removes the lane at position li of the active list, preserving
// the ascending order of the remaining lanes.
func (bs *BatchSim) retire(li int) {
	lane := bs.active[li]
	bs.alive[lane] = false
	bs.active = append(bs.active[:li], bs.active[li+1:]...)
}

// RunCompiledBatch compiles each layout against ct and scores all of them
// in one walk through a fresh BatchSim. Callers batching repeatedly (a
// search over thousands of candidates) should hold one BatchSim and call
// Run to reuse its state buffers.
func RunCompiledBatch(cfg Config, ct *CompiledTrace, layouts []*program.Layout, opts BatchOptions) (*BatchResult, error) {
	bs, err := NewBatchSim(cfg)
	if err != nil {
		return nil, err
	}
	tables := make([]*CompiledLayout, len(layouts))
	for i, layout := range layouts {
		if tables[i], err = CompileLayout(cfg, ct, layout); err != nil {
			return nil, err
		}
	}
	return bs.Run(ct, tables, opts)
}
