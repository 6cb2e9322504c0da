package cache

import (
	"fmt"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

// Hand-built traps for the LRU walk's residency memo, on the two 2-way
// geometries of the differential grid: the 8 KB cache (128 sets, four
// version blocks) and the 3 KB one (48 sets, set index by modulo, two
// version blocks of 32 and 16 sets). Procedures sit at whole lines, written
// in terms of the set count S, so each case is the same pattern on both
// caches. Every case pins its Stats to the per-reference oracle and to
// counts worked out by hand, and where the memo's verdict is the point,
// the verdict too.

var lruMemoConfigs = []Config{
	{SizeBytes: 8192, LineBytes: 32, Assoc: 2},
	{SizeBytes: 3072, LineBytes: 32, Assoc: 2},
}

// memoProc places one procedure: its first line, a byte offset into that
// line and its size in bytes.
type memoProc struct{ line, off, size int }

// memoCheck asks, after the first `after` events, whether the memo would
// settle the class of event `event` without walking it.
type memoCheck struct {
	after, event int
	settles      bool
}

type memoCase struct {
	name   string
	procs  func(s int) []memoProc
	events []int // procedure of each event
	want   func(s int64) Stats
	checks []memoCheck
}

var lruMemoCases = []memoCase{
	{
		// A holds lines 30–31; B starts mid-line 31 and ends in line 32,
		// the first set of the next version block. B's reference to line
		// 31 is an MRU hit, which changes no order, and its miss on line
		// 32 bumps another block, so A stays resident: 2+2 cold misses
		// less the shared line, and A's return is two hits.
		name: "MRU hit by another class keeps the class resident",
		procs: func(s int) []memoProc {
			return []memoProc{{30, 0, 64}, {31, 16, 48}}
		},
		events: []int{0, 1, 0},
		want:   func(s int64) Stats { return Stats{Refs: 6, Misses: 3, Cold: 3} },
		checks: []memoCheck{{after: 2, event: 0, settles: true}},
	},
	{
		// A, B and X are one line each in set 30. A B A B leaves the set
		// [b a] with no miss after the first two, B's second reference
		// being a hit below the MRU way. It must count as a write: X then
		// evicts a, and A misses again. Misses a, b, x, a; cold a, b, x.
		name: "hit below the MRU way by another class makes the class walk",
		procs: func(s int) []memoProc {
			return []memoProc{{30, 0, 32}, {30 + s, 0, 32}, {30 + 2*s, 0, 32}}
		},
		events: []int{0, 1, 0, 1, 2, 0},
		want:   func(s int64) Stats { return Stats{Refs: 6, Misses: 4, Cold: 3} },
		checks: []memoCheck{
			{after: 3, event: 0, settles: true},
			{after: 4, event: 0, settles: false},
		},
	},
	{
		// W spans S+2 lines, so sets 0 and 1 hold two of its lines each:
		// more lines than sets, no more than NumLines. Its second walk
		// settles; X (line 2S, set 0) evicts line 0, and W's third walk
		// misses lines 0 and S (which then evicts 2S) and reorders set 1
		// twice; its fourth settles again. Misses S+2, 1, 2; cold S+3.
		name: "two lines per set settle exactly",
		procs: func(s int) []memoProc {
			return []memoProc{{0, 0, (s + 2) * 32}, {2 * s, 0, 32}}
		},
		events: []int{0, 0, 1, 0, 0},
		want: func(s int64) Stats {
			return Stats{Refs: 4*(s+2) + 1, Misses: s + 5, Cold: s + 3}
		},
		checks: []memoCheck{
			{after: 1, event: 0, settles: true},
			{after: 3, event: 0, settles: false},
			{after: 4, event: 0, settles: true},
		},
	},
	{
		// C holds lines S-2 … S+1: sets S-2 and S-1 in the last version
		// block, then sets 0 and 1 in the first, so its block scan is two
		// intervals. D and E (lines 2S and 3S) evict line S from set 0,
		// which only the wrapped interval sees; C's return misses it.
		name: "a class wrapping past set 0 splits the block scan",
		procs: func(s int) []memoProc {
			return []memoProc{{s - 2, 0, 128}, {2 * s, 0, 32}, {3 * s, 0, 32}}
		},
		events: []int{0, 1, 2, 0},
		want:   func(s int64) Stats { return Stats{Refs: 10, Misses: 7, Cold: 6} },
		checks: []memoCheck{
			{after: 1, event: 0, settles: true},
			{after: 3, event: 0, settles: false},
		},
	},
	{
		// Y spans 2S+1 lines, one more than NumLines: set 0 cycles three
		// lines through two ways and misses all three on every walk, so
		// the memo must never settle Y. Misses 2S+1, then 3.
		name: "a class longer than NumLines walks every activation",
		procs: func(s int) []memoProc {
			return []memoProc{{0, 0, (2*s + 1) * 32}}
		},
		events: []int{0, 0},
		want: func(s int64) Stats {
			return Stats{Refs: 2 * (2*s + 1), Misses: 2*s + 4, Cold: 2*s + 1}
		},
		checks: []memoCheck{{after: 1, event: 0, settles: false}},
	},
}

// build returns the case's program, layout and trace for a cache of s sets.
func (mc memoCase) build(s int) (*program.Layout, *trace.Trace) {
	placed := mc.procs(s)
	procs := make([]program.Procedure, len(placed))
	for i, p := range placed {
		procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: p.size}
	}
	layout := program.NewLayout(program.MustNew(procs))
	for i, p := range placed {
		layout.SetAddr(program.ProcID(i), p.line*32+p.off)
	}
	tr := &trace.Trace{}
	for _, p := range mc.events {
		tr.Append(trace.Event{Proc: program.ProcID(p)})
	}
	return layout, tr
}

// memoSettles restates walkLRU's residency rule over the engine state, set
// by set: whether the next activation of class c would settle without a
// walk.
func memoSettles(bs *BatchSim, c int32) bool {
	cs := bs.cls[c]
	if !cs.free {
		return false
	}
	sv := cs.stamp
	if sv == bs.wver {
		return true
	}
	for k := int64(0); k < min(int64(cs.span), bs.numSets); k++ {
		if bs.bver[((cs.first+k)%bs.numSets)>>blockShift] > sv {
			return false
		}
	}
	return true
}

// TestLRUResidencyMemoTraps runs every case on both geometries: the whole
// trace against the oracle and the hand counts, the memo's verdict at each
// checkpoint, and a budgeted walk at every budget up to the final miss
// count, which must stop after exactly the event at which the oracle's
// running miss count first exceeds the budget.
func TestLRUResidencyMemoTraps(t *testing.T) {
	for _, cfg := range lruMemoConfigs {
		s := cfg.NumSets()
		for _, mc := range lruMemoCases {
			name := fmt.Sprintf("%d sets/%s", s, mc.name)
			layout, tr := mc.build(s)
			ct := CompileTrace(layout.Program(), tr)
			tab, err := CompileLayout(cfg, ct, layout)
			if err != nil {
				t.Fatal(err)
			}
			bs := MustNewBatchSim(cfg)
			res, err := bs.Run(ct, []*CompiledLayout{tab}, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := mc.want(int64(s))
			if oracle := newRefSim(cfg).runTraceOracle(layout, tr); oracle != want {
				t.Errorf("%s: oracle %+v, hand count %+v", name, oracle, want)
			}
			if res.Stats[0] != want {
				t.Errorf("%s: engine %+v, hand count %+v", name, res.Stats[0], want)
			}

			for _, ck := range mc.checks {
				if err := bs.Bind(tab); err != nil {
					t.Fatal(err)
				}
				if _, err := bs.Replay(ct.Slice(0, ck.after)); err != nil {
					t.Fatal(err)
				}
				if got := memoSettles(bs, ct.events[ck.event].class); got != ck.settles {
					t.Errorf("%s: after %d events, event %d's class settles = %v, want %v",
						name, ck.after, ck.event, got, ck.settles)
				}
			}

			// The oracle's running miss count after each event.
			ref := newRefSim(cfg)
			running := make([]int64, tr.Len())
			for i := range running {
				ref.replayWindowOracle(layout, tr, i, i+1)
				running[i] = ref.stats.Misses
			}
			for budget := int64(-1); budget <= want.Misses; budget++ {
				stop := -1
				for i, m := range running {
					if m > budget {
						stop = i
						break
					}
				}
				res, err := bs.Run(ct, []*CompiledLayout{tab}, BatchOptions{Budgets: []int64{budget}})
				if err != nil {
					t.Fatal(err)
				}
				walked, wantStats := tr.Len(), want
				if stop >= 0 {
					walked = stop + 1
					wantStats = newRefSim(cfg).replayWindowOracle(layout, tr, 0, walked)
				}
				if res.Abandoned[0] != (stop >= 0) || res.Batch.LaneEvents != int64(walked) ||
					res.Stats[0] != wantStats {
					t.Errorf("%s: budget %d: abandoned %v after %d events with %+v, oracle stops after %d with %+v",
						name, budget, res.Abandoned[0], res.Batch.LaneEvents, res.Stats[0], walked, wantStats)
				}
			}
		}
	}
}
