// Package optimal finds the truly optimal procedure placement for small
// programs by exhaustive search over cache-relative alignments. It exists
// to quantify how close the greedy GBSC heuristic gets to the optimum —
// the paper asserts "this greedy heuristic works quite well in practice"
// (Section 4.2) without being able to measure the gap; at toy scale we can.
package optimal

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
)

// MaxProcs bounds the exhaustive search: the space is lines^(procs-1)
// simulations, each a full trace replay.
const MaxProcs = 6

// Result is the outcome of the search.
type Result struct {
	// Layout is an optimal layout (the first one found with minimal
	// misses).
	Layout *program.Layout
	// Misses is the optimal miss count on the given trace.
	Misses int64
	// Evaluated is the number of alignments simulated: every candidate,
	// lines^(procs-1) of them.
	Evaluated int64
	// Pruned is always zero: the search skips no candidate unsimulated,
	// because incumbent budgets already stop almost every losing walk
	// early, which made a static lower-bound prescreen cost more than it
	// saved. The field stays for callers that still read it.
	Pruned int64
	// Abandoned counts evaluated candidates whose walk stopped early
	// because the running miss count already exceeded the incumbent's —
	// a subset of Evaluated.
	Abandoned int64
	// Batch is the compiled engine's work accounting: one lane per
	// candidate, and how many events were walked versus saved by early
	// abandonment.
	Batch cache.BatchStats
}

// validate rejects programs and geometries outside the exhaustive
// search's scope.
func validate(prog *program.Program, tr *trace.Trace, cfg cache.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Assoc != 1 {
		return fmt.Errorf("optimal: only direct-mapped caches supported")
	}
	n := prog.NumProcs()
	if n == 0 {
		return fmt.Errorf("optimal: empty program")
	}
	if n > MaxProcs {
		return fmt.Errorf("optimal: %d procedures exceed the exhaustive bound %d", n, MaxProcs)
	}
	return tr.Validate(prog)
}

// candidates drives the odometer over offsets[1..n-1] (the first
// procedure is pinned to line 0 — rotations of a placement are
// equivalent), yielding each linearized candidate in search order until
// yield returns false or the space is exhausted.
func candidates(prog *program.Program, cfg cache.Config, yield func(*program.Layout) (bool, error)) error {
	n := prog.NumProcs()
	lines := cfg.NumLines()
	offsets := make([]int, n) // offsets[0] stays 0
	items := make([]place.Placed, n)
	pop := popular.All(prog)
	for {
		for i := range items {
			items[i] = place.Placed{Proc: program.ProcID(i), Line: offsets[i]}
		}
		layout, err := place.Linearize(prog, items, pop.Unpopular(prog), cfg, lines)
		if err != nil {
			return err
		}
		if more, err := yield(layout); err != nil || !more {
			return err
		}
		i := 1
		for ; i < n; i++ {
			offsets[i]++
			if offsets[i] < lines {
				break
			}
			offsets[i] = 0
		}
		if i == n {
			return nil
		}
	}
}

// Search exhaustively tries every combination of cache-line offsets for
// the program's procedures and returns a layout minimizing the simulated
// miss count of tr. Programs must have at most MaxProcs procedures and a
// modest line count; the space is at most lines^(n-1) candidates.
//
// Two amortizations stack, and each preserves the first-minimal winner of
// the plain serial search (SearchReference, kept in the tests)
// byte-for-byte:
//
//   - The trace is compiled once, and every candidate is scored by its own
//     walk of that compilation through one reused simulator
//     (cache.BatchSim) instead of a private replay each.
//   - Once an incumbent exists, each walk gets budget incumbent−1: a walk
//     whose running miss count exceeds it stops early. Its final count
//     would have been ≥ the incumbent's, so a strictly better candidate is
//     never lost; candidates settle in odometer order, so the
//     first-minimal tie-break is preserved as well.
func Search(prog *program.Program, tr *trace.Trace, cfg cache.Config) (*Result, error) {
	if err := validate(prog, tr, cfg); err != nil {
		return nil, err
	}
	ct := cache.CompileTrace(prog, tr)
	bs, err := cache.NewBatchSim(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Misses: math.MaxInt64}
	err = candidates(prog, cfg, func(layout *program.Layout) (bool, error) {
		cl, err := cache.CompileLayout(cfg, ct, layout)
		if err != nil {
			return false, err
		}
		var opts cache.BatchOptions
		if res.Layout != nil {
			opts.Budgets = []int64{res.Misses - 1}
		}
		run, err := bs.Run(ct, []*cache.CompiledLayout{cl}, opts)
		if err != nil {
			return false, err
		}
		res.Batch.Add(run.Batch)
		res.Evaluated++
		if run.Abandoned[0] {
			res.Abandoned++
		} else if st := run.Stats[0]; st.Misses < res.Misses {
			res.Misses = st.Misses
			res.Layout = layout
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
