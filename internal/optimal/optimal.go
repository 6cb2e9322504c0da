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
// candidates.
const MaxProcs = 6

// Result is the outcome of the search.
type Result struct {
	// Layout is an optimal layout (the first one found with minimal
	// misses).
	Layout *program.Layout
	// Misses is the optimal miss count on the given trace.
	Misses int64
	// Evaluated is the number of candidates walked on the full trace.
	Evaluated int64
	// Pruned is the number of candidates skipped unwalked, because a
	// walk of a placed prefix proved that none of its completions can
	// beat the incumbent. Evaluated + Pruned = lines^(procs-1).
	Pruned int64
	// Abandoned counts evaluated candidates whose walk stopped early
	// because the running miss count already reached the incumbent's — a
	// subset of Evaluated.
	Abandoned int64
	// Batch is the compiled engine's work accounting over every walk the
	// search made: one lane per evaluated candidate, walked against the
	// full trace, and one per prefix walk, against the prefix's
	// restricted compilation; events are counted against the length of
	// the compilation walked.
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

// linearize turns line offsets (offsets[0] = 0) into the final layout:
// place.Linearize with every procedure popular.
func linearize(prog *program.Program, cfg cache.Config, offsets []int) (*program.Layout, error) {
	items := make([]place.Placed, len(offsets))
	for i, off := range offsets {
		items[i] = place.Placed{Proc: program.ProcID(i), Line: off}
	}
	return place.Linearize(prog, items, popular.All(prog).Unpopular(prog), cfg, cfg.NumLines())
}

// Search exhaustively searches every combination of cache-line offsets
// for the program's procedures (the first procedure pinned on line 0, as
// rotations of a placement are equivalent) and returns a layout
// minimizing the simulated miss count of tr. Programs must have at most
// MaxProcs procedures and a modest line count; the space is lines^(n-1)
// candidates. Its winner is byte-identical to the plain serial search
// (SearchReference, kept in the tests), which tries every candidate in
// odometer order and keeps the first minimal one.
//
// The search is a depth-first branch and bound over that odometer: it
// places procedure n-1 first and procedure 1 last, each on lines 0, 1, …
// in turn, so the candidates come in the reference's order and the
// first-minimal tie-break holds. The trace is compiled once, with one
// restricted copy per depth holding only the events of the procedures
// placed there, and every walk goes through one reused simulator
// (cache.BatchSim) with a budget:
//
//   - A candidate's walk gets budget incumbent−1: a walk whose running
//     miss count exceeds it stops early, as its final count would be ≥
//     the incumbent's.
//   - A prefix's walk of its restricted copy gets budget incumbent−1−R,
//     where R is the number of distinct lines the unplaced procedures'
//     events touch. Every hit of the restricted walk is a hit in any
//     completion (deleting other procedures' accesses keeps a line the
//     most recent one in its set), and each of those R lines costs a
//     cold miss, so every completion misses at least the walk's count
//     plus R. A walk that exceeds its budget therefore skips the
//     prefix's whole subtree, counted in Result.Pruned.
//
// Candidates and prefixes are scored on a region layout that gives every
// procedure its own region of lines, each mapping to the same sets as
// under place.Linearize, so its direct-mapped statistics equal the
// linearized candidate's; only the winner is linearized.
func Search(prog *program.Program, tr *trace.Trace, cfg cache.Config) (*Result, error) {
	if err := validate(prog, tr, cfg); err != nil {
		return nil, err
	}
	s, err := newSearcher(prog, tr, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.search(prog.NumProcs() - 1); err != nil {
		return nil, err
	}
	s.res.Layout, err = linearize(prog, cfg, s.best)
	if err != nil {
		return nil, err
	}
	return s.res, nil
}

// searcher is the state of one branch-and-bound search.
type searcher struct {
	cfg   cache.Config
	lines int
	bs    *cache.BatchSim
	res   *Result
	// tab is recompiled for every walk; tables and budgets are the walk's
	// Run arguments, holding tab and the walk's budget.
	tab     cache.CompiledLayout
	tables  []*cache.CompiledLayout
	budgets []int64
	// layout is the region layout of the current candidate: procedure p
	// starts on line p·stride + off[p]. stride is a multiple of NumLines,
	// so each line maps to the set it would under place.Linearize, and
	// exceeds NumLines by at least the longest procedure's line count, so
	// no two procedures share a line.
	layout *program.Layout
	stride int
	off    []int
	best   []int // the incumbent's offsets
	// full is the compiled trace. For 2 ≤ k < n, prefix[k] is the trace
	// restricted to the events of procedures 0 and k..n-1 — those placed
	// once procedure k is — and rest[k] counts the distinct lines the
	// events of procedures 1..k-1 touch.
	full   *cache.CompiledTrace
	prefix []*cache.CompiledTrace
	rest   []int64
	// completions[k] = lines^(k-1), the candidates below a prefix whose
	// last placed procedure is k.
	completions []int64
}

func newSearcher(prog *program.Program, tr *trace.Trace, cfg cache.Config) (*searcher, error) {
	bs, err := cache.NewBatchSim(cfg)
	if err != nil {
		return nil, err
	}
	n, lines := prog.NumProcs(), cfg.NumLines()
	longest := 0
	for p := 0; p < n; p++ {
		longest = max(longest, prog.SizeLines(program.ProcID(p), cfg.LineBytes))
	}
	s := &searcher{
		cfg:         cfg,
		lines:       lines,
		bs:          bs,
		res:         &Result{Misses: math.MaxInt64},
		layout:      program.NewLayout(prog),
		stride:      lines * (1 + program.CeilDiv(longest, lines)),
		off:         make([]int, n),
		best:        make([]int, n),
		full:        cache.CompileTrace(prog, tr),
		prefix:      make([]*cache.CompiledTrace, n),
		rest:        make([]int64, n),
		completions: make([]int64, n),
		budgets:     make([]int64, 1),
	}
	s.tables = []*cache.CompiledLayout{&s.tab}
	for p := 0; p < n; p++ {
		s.place(p, 0)
	}
	// A procedure starts on a line boundary, so its events touch
	// ⌈longest effective extent / LineBytes⌉ lines wherever it lands.
	touched := make([]int64, n)
	sub := make([]trace.Trace, n)
	// repolint:allow tracereplay/events: splits the events into the restricted traces the prefixes compile
	for _, e := range tr.Events {
		touched[e.Proc] = max(touched[e.Proc], int64(program.CeilDiv(e.ExtentBytes(prog), cfg.LineBytes)))
		for k := 2; k < n; k++ {
			if e.Proc == 0 || int(e.Proc) >= k {
				sub[k].Append(e)
			}
		}
	}
	size := int64(1)
	for k := 1; k < n; k++ {
		s.completions[k] = size
		size *= int64(lines)
		if k >= 2 {
			s.rest[k] = s.rest[k-1] + touched[k-1]
			s.prefix[k] = cache.CompileTrace(prog, &sub[k])
		}
	}
	return s, nil
}

// place puts procedure p on line off of its region.
func (s *searcher) place(p, off int) {
	s.off[p] = off
	s.layout.SetAddr(program.ProcID(p), (p*s.stride+off)*s.cfg.LineBytes)
}

// search places procedure k on each line in turn, procedures k+1..n-1
// already placed, and searches below each placement; at k = 0 every
// procedure is placed and the candidate is walked.
func (s *searcher) search(k int) error {
	if k == 0 {
		return s.leaf()
	}
	for off := 0; off < s.lines; off++ {
		s.place(k, off)
		if k > 1 && s.res.Misses < math.MaxInt64 {
			_, abandoned, err := s.walk(s.prefix[k], s.res.Misses-1-s.rest[k])
			if err != nil {
				return err
			}
			if abandoned {
				s.res.Pruned += s.completions[k]
				continue
			}
		}
		if err := s.search(k - 1); err != nil {
			return err
		}
	}
	return nil
}

// leaf walks the current candidate on the full trace under budget
// incumbent−1 and keeps it if it beats the incumbent.
func (s *searcher) leaf() error {
	misses, abandoned, err := s.walk(s.full, s.res.Misses-1)
	if err != nil {
		return err
	}
	s.res.Evaluated++
	if abandoned {
		s.res.Abandoned++
	} else if misses < s.res.Misses {
		s.res.Misses = misses
		copy(s.best, s.off)
	}
	return nil
}

// walk scores the region layout on ct under budget and returns its miss
// count (partial if the walk was abandoned) and whether it was.
func (s *searcher) walk(ct *cache.CompiledTrace, budget int64) (int64, bool, error) {
	if err := s.tab.Recompile(s.cfg, ct, s.layout); err != nil {
		return 0, false, err
	}
	s.budgets[0] = budget
	run, err := s.bs.Run(ct, s.tables, cache.BatchOptions{Budgets: s.budgets})
	if err != nil {
		return 0, false, err
	}
	s.res.Batch.Add(run.Batch)
	return run.Stats[0].Misses, run.Abandoned[0], nil
}
