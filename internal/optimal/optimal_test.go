package optimal

import (
	"math/rand"
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
	if res.Evaluated != 16 || res.Pruned != 0 { // 4 lines ^ 2 free procedures
		t.Errorf("Evaluated = %d, Pruned = %d, want 16 and 0", res.Evaluated, res.Pruned)
	}
	if err := res.Layout.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSearchMatchesReference is the budgeted-walk gate: across random
// tiny workloads, Search (one budgeted walk per candidate) must return
// exactly the serial SearchReference's first-minimal winner, evaluate the
// whole candidate space, and account for every walk: one lane per
// candidate, each either walked to the end or stopped early with the rest
// of its events saved. Abandonment must actually fire somewhere on
// aggregate.
func TestSearchMatchesReference(t *testing.T) {
	var abandoned, saved int64
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
		space := int64(1)
		for i := 1; i < n; i++ {
			space *= int64(tiny.NumLines())
		}
		if got.Pruned != 0 {
			t.Errorf("seed %d: pruned %d candidates", seed, got.Pruned)
		}
		if got.Evaluated != space || want.Evaluated != space {
			t.Errorf("seed %d: evaluated %d (reference %d) of %d candidates", seed, got.Evaluated, want.Evaluated, space)
		}
		if got.Abandoned >= got.Evaluated {
			t.Errorf("seed %d: %d abandoned of %d evaluated", seed, got.Abandoned, got.Evaluated)
		}
		if got.Batch.Lanes != got.Evaluated {
			t.Errorf("seed %d: %d lanes for %d candidates", seed, got.Batch.Lanes, got.Evaluated)
		}
		if walked := got.Batch.LaneEvents + got.Batch.LaneEventsSaved; walked != got.Evaluated*int64(tr.Len()) {
			t.Errorf("seed %d: walked %d + saved %d != %d candidates × %d events",
				seed, got.Batch.LaneEvents, got.Batch.LaneEventsSaved, got.Evaluated, tr.Len())
		}
		if want.Abandoned != 0 || want.Batch.Lanes != 0 {
			t.Errorf("seed %d: reference reports batch work %+v", seed, want)
		}
		abandoned += got.Abandoned
		saved += got.Batch.LaneEventsSaved
	}
	if abandoned == 0 {
		t.Error("abandonment never fired across 10 seeds")
	}
	if saved == 0 {
		t.Error("abandonment saved no lane-events across 10 seeds")
	}
	t.Logf("abandoned %d walks, saved %d lane-events across 10 seeds", abandoned, saved)
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
