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
	"repro/internal/staticcache"
	"repro/internal/trace"
)

// MaxProcs bounds the exhaustive search: the space is lines^(procs-1)
// simulations, each a full trace replay.
const MaxProcs = 6

// batchWidth is how many surviving candidates Search scores per batched
// trace walk. Sixteen lanes keep the per-lane simulated state (tag
// arrays + first-touch stamps for a toy geometry) comfortably cache
// resident while amortizing the compiled-trace stream sixteen ways.
const batchWidth = 16

// Result is the outcome of the search.
type Result struct {
	// Layout is an optimal layout (the first one found with minimal
	// misses).
	Layout *program.Layout
	// Misses is the optimal miss count on the given trace.
	Misses int64
	// Evaluated is the number of alignments actually simulated; Pruned is
	// the number skipped because their static lower bound already exceeded
	// the incumbent's simulated miss count. Evaluated+Pruned is the full
	// candidate space.
	Evaluated int64
	Pruned    int64
	// Abandoned counts evaluated candidates whose replay retired mid-walk
	// because the running miss count already exceeded the incumbent's —
	// a subset of Evaluated.
	Abandoned int64
	// Batch is the batched engine's work accounting: how many lane-events
	// were walked versus saved by early abandonment.
	Batch cache.BatchStats
}

// validate rejects programs and geometries outside the exhaustive
// search's scope and builds the shared static model.
func validate(prog *program.Program, tr *trace.Trace, cfg cache.Config) (*staticcache.Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Assoc != 1 {
		return nil, fmt.Errorf("optimal: only direct-mapped caches supported")
	}
	n := prog.NumProcs()
	if n == 0 {
		return nil, fmt.Errorf("optimal: empty program")
	}
	if n > MaxProcs {
		return nil, fmt.Errorf("optimal: %d procedures exceed the exhaustive bound %d", n, MaxProcs)
	}
	if err := tr.Validate(prog); err != nil {
		return nil, err
	}
	// One static model serves every candidate: the activation classes and
	// adjacency edges depend only on (program, trace, geometry), while the
	// per-layout Analyze pass is far cheaper than a replay.
	return staticcache.NewModel(prog, tr, cfg)
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
// Three amortizations stack, and each preserves the first-minimal winner
// of the plain serial search (SearchReference, kept in the tests)
// byte-for-byte:
//
//   - Candidates are pre-screened with the static analysis: a layout whose
//     sound lower miss bound (staticcache) already exceeds the best
//     simulated miss count so far cannot win — its true misses are at
//     least the bound — so its replay is skipped. Within a batch the
//     incumbent used for screening may be stale (it only advances at
//     flush), which is still sound: the incumbent's miss count only
//     decreases, so a bound exceeding a stale incumbent exceeds the final
//     one too. Only the Pruned/Evaluated split can shift vs the serial
//     screen, never the winner.
//   - Survivors are scored batchWidth at a time by one shared walk of the
//     compiled trace (cache.BatchSim) instead of a private replay each.
//   - Once an incumbent exists, every lane gets budget incumbent−1: a
//     lane whose running miss count exceeds it retires mid-walk. Its
//     final count would have been ≥ the incumbent's at flush time — and
//     the incumbent only improves within a flush — so a strictly better
//     candidate is never lost; lanes are settled in odometer order, so
//     the first-minimal tie-break is preserved as well.
func Search(prog *program.Program, tr *trace.Trace, cfg cache.Config) (*Result, error) {
	model, err := validate(prog, tr, cfg)
	if err != nil {
		return nil, err
	}
	ct := cache.CompileTrace(prog, tr)
	bs, err := cache.NewBatchSim(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Misses: math.MaxInt64}

	pending := make([]*cache.CompiledLayout, 0, batchWidth)
	budgets := make([]int64, 0, batchWidth)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		opts := cache.BatchOptions{}
		if res.Layout != nil {
			budgets = budgets[:0]
			for range pending {
				budgets = append(budgets, res.Misses-1)
			}
			opts.Budgets = budgets
		}
		run, err := bs.Run(ct, pending, opts)
		if err != nil {
			return err
		}
		res.Batch.Add(run.Batch)
		for i, cl := range pending {
			res.Evaluated++
			if run.Abandoned[i] {
				res.Abandoned++
				continue
			}
			if st := run.Stats[i]; st.Misses < res.Misses {
				res.Misses = st.Misses
				res.Layout = cl.Layout()
			}
		}
		pending = pending[:0]
		return nil
	}

	err = candidates(prog, cfg, func(layout *program.Layout) (bool, error) {
		if res.Layout != nil && model.Analyze(layout).LowerMisses > res.Misses {
			res.Pruned++
			return true, nil
		}
		cl, err := cache.CompileLayout(cfg, ct, layout)
		if err != nil {
			return false, err
		}
		pending = append(pending, cl)
		if len(pending) == batchWidth {
			return true, flush()
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return res, nil
}
