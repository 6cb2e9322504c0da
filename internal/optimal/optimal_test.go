package optimal

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
)

var tiny = cache.Config{SizeBytes: 128, LineBytes: 32, Assoc: 1} // 4 lines

func TestSearchFindsZeroConflictLayout(t *testing.T) {
	// Three single-line procedures in a 4-line cache: a conflict-free
	// placement exists, so the optimum is pure cold misses.
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 32},
		{Name: "b", Size: 32},
		{Name: "c", Size: 32},
	})
	tr := &trace.Trace{}
	for i := 0; i < 50; i++ {
		for p := 0; p < 3; p++ {
			tr.Append(trace.Event{Proc: program.ProcID(p)})
		}
	}
	res, err := Search(prog, tr, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 3 {
		t.Errorf("optimal misses = %d, want 3 (cold only)", res.Misses)
	}
	if res.Evaluated+res.Pruned != 16 { // 4 lines ^ 2 free procedures
		t.Errorf("Evaluated = %d, Pruned = %d, want a sum of 16", res.Evaluated, res.Pruned)
	}
	if err := res.Layout.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSearchMatchesReference is the branch-and-bound gate on the
// optimality experiment's cell shape: across random tiny workloads,
// Search must return exactly the serial SearchReference's first-minimal
// winner, account for the whole candidate space as evaluated or pruned,
// and account for every walk: one lane per evaluated candidate or prefix,
// each either walked to the end or stopped early with the rest of its
// events saved. Pruning and abandonment must actually fire somewhere on
// aggregate.
func TestSearchMatchesReference(t *testing.T) {
	var pruned, abandoned, saved int64
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 3
		procs := make([]program.Procedure, n)
		for i := range procs {
			procs[i] = program.Procedure{
				Name: string(rune('a' + i)),
				Size: 32 * (rng.Intn(2) + 1),
			}
		}
		prog := program.MustNew(procs)
		tr := &trace.Trace{}
		for i := 0; i < 400; i++ {
			// Even seeds: deterministic round-robin. Odd seeds: random
			// order.
			p := i % n
			if seed%2 == 1 {
				p = rng.Intn(n)
			}
			tr.Append(trace.Event{Proc: program.ProcID(p)})
		}
		got, err := Search(prog, tr, tiny)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SearchReference(prog, tr, tiny)
		if err != nil {
			t.Fatal(err)
		}
		if got.Misses != want.Misses {
			t.Errorf("seed %d: search misses %d, reference %d", seed, got.Misses, want.Misses)
		}
		for p := 0; p < n; p++ {
			if got.Layout.Addr(program.ProcID(p)) != want.Layout.Addr(program.ProcID(p)) {
				t.Errorf("seed %d: winner layouts diverge at proc %d", seed, p)
			}
		}
		if sp := space(prog, tiny); got.Evaluated+got.Pruned != sp || want.Evaluated != sp {
			t.Errorf("seed %d: evaluated %d + pruned %d (reference evaluated %d) of %d candidates",
				seed, got.Evaluated, got.Pruned, want.Evaluated, sp)
		}
		if got.Abandoned >= got.Evaluated {
			t.Errorf("seed %d: %d abandoned of %d evaluated", seed, got.Abandoned, got.Evaluated)
		}
		// Prefix walks add lanes, each over a restricted compilation no
		// longer than the trace.
		b := got.Batch
		if b.Runs != b.Lanes || b.Lanes < got.Evaluated || b.AbandonedLanes < got.Abandoned {
			t.Errorf("seed %d: batch %+v for %d evaluated, %d abandoned candidates", seed, b, got.Evaluated, got.Abandoned)
		}
		if walked := b.LaneEvents + b.LaneEventsSaved; walked < got.Evaluated*int64(tr.Len()) || walked > b.Lanes*int64(tr.Len()) {
			t.Errorf("seed %d: walked %d + saved %d outside [%d candidates, %d lanes] × %d events",
				seed, b.LaneEvents, b.LaneEventsSaved, got.Evaluated, b.Lanes, tr.Len())
		}
		if want.Abandoned != 0 || want.Pruned != 0 || want.Batch.Lanes != 0 {
			t.Errorf("seed %d: reference reports batch work %+v", seed, want)
		}
		pruned += got.Pruned
		abandoned += got.Abandoned
		saved += b.LaneEventsSaved
	}
	if pruned == 0 {
		t.Error("pruning never fired across 10 seeds")
	}
	if abandoned == 0 {
		t.Error("abandonment never fired across 10 seeds")
	}
	if saved == 0 {
		t.Error("abandonment saved no lane-events across 10 seeds")
	}
	t.Logf("pruned %d candidates, abandoned %d walks, saved %d lane-events across 10 seeds", pruned, abandoned, saved)
}

// randomCell draws a search cell: 1 to maxProcs procedures of 1–200
// bytes (so some are longer than the cache), a trace of 0–82 events
// with partial extents and repeats, and a direct-mapped cache of 3, 4, 5 or 8 lines of 16 or
// 32 bytes, so some set counts are not powers of two.
func randomCell(rng *rand.Rand, maxProcs int) (*program.Program, *trace.Trace, cache.Config) {
	lb := 16 << rng.Intn(2)
	cfg := cache.Config{SizeBytes: []int{3, 4, 5, 8}[rng.Intn(4)] * lb, LineBytes: lb, Assoc: 1}
	n := rng.Intn(maxProcs) + 1
	procs := make([]program.Procedure, n)
	for i := range procs {
		procs[i] = program.Procedure{Name: string(rune('a' + i)), Size: rng.Intn(200) + 1}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	for events := rng.Intn(81); tr.Len() < events; { // sometimes none
		e := trace.Event{Proc: program.ProcID(rng.Intn(n))}
		if rng.Intn(2) == 0 {
			e.Extent = int32(rng.Intn(procs[e.Proc].Size) + 1)
		}
		if rng.Intn(4) == 0 {
			e.Repeat = int32(rng.Intn(4) + 1)
		}
		// Repeat the activation a few times: a loop calling it.
		for r := rng.Intn(3); r >= 0; r-- {
			tr.Append(e)
		}
	}
	return prog, tr, cfg
}

// space returns the number of candidates of a search: lines^(procs-1).
func space(prog *program.Program, cfg cache.Config) int64 {
	s := int64(1)
	for i := 1; i < prog.NumProcs(); i++ {
		s *= int64(cfg.NumLines())
	}
	return s
}

// TestSearchMatchesReferenceOnRandomCells is the branch-and-bound
// differential on cells the optimality experiment never draws: byte sizes
// off the line grid, procedures longer than the cache, partial extents,
// repeats and non-power-of-two set counts. Every cell must return the
// reference's winner layout and misses and account for the whole space.
func TestSearchMatchesReferenceOnRandomCells(t *testing.T) {
	const cells = 320
	var pruned, total int64
	for seed := int64(1); seed <= cells; seed++ {
		prog, tr, cfg := randomCell(rand.New(rand.NewSource(seed)), 5)
		got, err := Search(prog, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SearchReference(prog, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Misses != want.Misses {
			t.Errorf("seed %d: search misses %d, reference %d", seed, got.Misses, want.Misses)
		}
		for p := 0; p < prog.NumProcs(); p++ {
			if id := program.ProcID(p); got.Layout.Addr(id) != want.Layout.Addr(id) {
				t.Errorf("seed %d: winner layouts diverge at proc %d", seed, p)
				break
			}
		}
		if sp := space(prog, cfg); got.Evaluated+got.Pruned != sp {
			t.Errorf("seed %d: evaluated %d + pruned %d != %d candidates", seed, got.Evaluated, got.Pruned, sp)
		}
		pruned += got.Pruned
		total += got.Evaluated + got.Pruned
	}
	if pruned == 0 {
		t.Errorf("pruning never fired across %d cells", cells)
	}
	t.Logf("pruned %d of %d candidates across %d cells", pruned, total, cells)
}

// TestRegionLayoutMatchesLinearized holds the premise of scoring
// candidates unlinearized: on every candidate of small cells, the
// searcher's region layout replays to exactly the Stats of the linearized
// candidate.
func TestRegionLayoutMatchesLinearized(t *testing.T) {
	var checked int
	for seed := int64(1); seed <= 60; seed++ {
		prog, tr, cfg := randomCell(rand.New(rand.NewSource(seed)), 4)
		s, err := newSearcher(prog, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = candidates(prog, cfg, func(offsets []int, layout *program.Layout) (bool, error) {
			for p, off := range offsets {
				s.place(p, off)
			}
			want, err := cache.RunTrace(cfg, layout, tr)
			if err != nil {
				return false, err
			}
			got, err := cache.RunTrace(cfg, s.layout, tr)
			if err != nil {
				return false, err
			}
			if got != want {
				t.Errorf("seed %d, offsets %v: region layout %+v, linearized %+v", seed, offsets, got, want)
				return false, nil
			}
			checked++
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d candidates checked", checked)
}

// TestPrefixBoundProperty holds the bound the pruning rests on: for random
// prefixes, the unbudgeted walk of the prefix's restricted compilation
// plus the lines the unplaced procedures touch is at most the misses of
// every completion.
func TestPrefixBoundProperty(t *testing.T) {
	var prefixes, tight int
	for seed := int64(1); prefixes < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog, tr, cfg := randomCell(rng, 5)
		n := prog.NumProcs()
		if n < 3 {
			continue
		}
		s, err := newSearcher(prog, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := rng.Intn(n-2) + 2 // the prefix places procedures 0 and k..n-1
		for p := k; p < n; p++ {
			s.place(p, rng.Intn(cfg.NumLines()))
		}
		restricted, _, err := s.walk(s.prefix[k], math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		bound := restricted + s.rest[k]
		least := int64(math.MaxInt64)
		err = candidates(prog, cfg, func(offsets []int, layout *program.Layout) (bool, error) {
			if !slices.Equal(offsets[k:], s.off[k:]) {
				return true, nil
			}
			st, err := cache.RunTrace(cfg, layout, tr)
			if err != nil {
				return false, err
			}
			least = min(least, st.Misses)
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if bound > least {
			t.Errorf("seed %d, prefix %v from proc %d: bound %d (walk %d + %d lines) above a completion's %d misses",
				seed, s.off[k:], k, bound, restricted, s.rest[k], least)
		}
		if bound == least {
			tight++
		}
		prefixes++
	}
	t.Logf("bound tight on %d of %d prefixes", tight, prefixes)
}

func TestSearchRejectsBigPrograms(t *testing.T) {
	procs := make([]program.Procedure, MaxProcs+1)
	for i := range procs {
		procs[i] = program.Procedure{Name: string(rune('a' + i)), Size: 32}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	if _, err := Search(prog, tr, tiny); err == nil {
		t.Error("Search accepted an oversized program")
	}
	if _, err := Search(program.MustNew(procs[:2]), tr, cache.Config{SizeBytes: 128, LineBytes: 32, Assoc: 2}); err == nil {
		t.Error("Search accepted a set-associative cache")
	}
}

// GBSC must be within a small factor of the true optimum on random tiny
// workloads — the quantified version of "this greedy heuristic works quite
// well in practice".
func TestGBSCNearOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 3 // 3..5 procedures
		procs := make([]program.Procedure, n)
		for i := range procs {
			procs[i] = program.Procedure{
				Name: string(rune('a' + i)),
				Size: 32 * (rng.Intn(2) + 1), // 1-2 lines
			}
		}
		prog := program.MustNew(procs)
		tr := &trace.Trace{}
		for i := 0; i < 400; i++ {
			// Even seeds: deterministic round-robin, the loop nest
			// GBSC's temporal model targets. Odd seeds: random order.
			p := i % n
			if seed%2 == 1 {
				p = rng.Intn(n)
			}
			tr.Append(trace.Event{Proc: program.ProcID(p)})
		}

		opt, err := Search(prog, tr, tiny)
		if err != nil {
			return false
		}
		res, err := trg.Build(prog, tr, trg.Options{CacheBytes: tiny.SizeBytes, ChunkSize: 32})
		if err != nil {
			return false
		}
		gl, err := core.Place(prog, res, nil, tiny)
		if err != nil {
			return false
		}
		st, err := cache.RunTrace(tiny, gl, tr)
		if err != nil {
			return false
		}
		// Within 1.8x of optimal plus slack for cold effects. Greedy can
		// lose ties but should never be far off at this scale.
		return float64(st.Misses) <= 1.8*float64(opt.Misses)+8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
