package anneal

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
)

var tiny = cache.Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}

func TestAnnealSeparatesConflictingPair(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 32},
		{Name: "b", Size: 32},
	})
	tr := &trace.Trace{}
	for i := 0; i < 50; i++ {
		tr.Append(trace.Event{Proc: 0})
		tr.Append(trace.Event{Proc: 1})
	}
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: tiny.SizeBytes, ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Place(prog, res, nil, tiny, Options{Steps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	n := tiny.NumLines()
	if l.StartLine(0, 32, n) == l.StartLine(1, 32, n) {
		t.Error("annealer left the alternating pair on the same line")
	}
	st, err := cache.RunTrace(tiny, l, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 cold", st.Misses)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 64},
		{Name: "b", Size: 64},
		{Name: "c", Size: 64},
	})
	tr := &trace.Trace{}
	for i := 0; i < 60; i++ {
		tr.Append(trace.Event{Proc: program.ProcID(i % 3)})
	}
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: tiny.SizeBytes, ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Place(prog, res, nil, tiny, Options{Steps: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(prog, res, nil, tiny, Options{Steps: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if a.Addr(program.ProcID(p)) != b.Addr(program.ProcID(p)) {
			t.Fatal("same seed produced different layouts")
		}
	}
}

// The annealer's result is the sanity reference: GBSC should land within a
// modest factor of it on a mid-sized workload, confirming the greedy
// heuristic leaves little headroom (the point of including an annealer).
func TestGBSCCompetitiveWithAnnealing(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}
	procs := make([]program.Procedure, 12)
	for i := range procs {
		procs[i] = program.Procedure{Name: string(rune('a' + i)), Size: 96 + 32*(i%4)}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	for i := 0; i < 3000; i++ {
		phase := (i / 750) % 4
		tr.Append(trace.Event{Proc: program.ProcID((phase*3 + i%4) % 12)})
	}
	pop := popular.All(prog)
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}

	gl, err := core.Place(prog, res, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	al, err := Place(prog, res, pop, cfg, Options{Steps: 30000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	gm := metrics.TRGConflict(gl, res.Place, res.Chunker, cfg)
	am := metrics.TRGConflict(al, res.Place, res.Chunker, cfg)
	// GBSC within 2x of the annealed metric (usually much closer).
	if gm > 2*am+100 {
		t.Errorf("GBSC metric %d far above annealed %d", gm, am)
	}

	gmr, err := cache.MissRate(cfg, gl, tr)
	if err != nil {
		t.Fatal(err)
	}
	amr, err := cache.MissRate(cfg, al, tr)
	if err != nil {
		t.Fatal(err)
	}
	if gmr > 2*amr+0.01 {
		t.Errorf("GBSC miss rate %.4f far above annealed %.4f", gmr, amr)
	}
}

// TestEvaluatorTraps pins what the evaluator must not charge: edges
// between the mover's own chunks and edges to chunks of procedures that
// are not items. Items are ordered unlike pop.IDs, as Init may order them.
func TestEvaluatorTraps(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "big", Size: 256}, // two 128-byte chunks, each on every line
		{Name: "hot", Size: 32},
		{Name: "cold", Size: 32},
	})
	res := &trg.Result{Place: graph.New(), Chunker: program.MustNewChunker(prog, 128)}
	res.Place.AddEdgeWeight(0, 1, 1000) // inside big
	res.Place.AddEdgeWeight(1, 3, 1000) // big to cold, which is no item
	res.Place.AddEdgeWeight(2, 3, 1000) // hot to cold
	res.Place.AddEdgeWeight(0, 2, 5)    // big's first chunk to hot
	items := []place.Placed{{Proc: 1, Line: 2}, {Proc: 0, Line: 0}}
	ev := newEvaluator(prog, res, tiny, items)
	oracle := newLineEvaluator(prog, res, tiny, tiny.NumLines(), items)
	// big's first chunk covers all four lines, so hot meets it wherever
	// either sits: 5 at every offset, and no move changes the cost.
	if got, want := ev.totalCost(items), int64(5); got != want || oracle.totalCost(items) != want {
		t.Fatalf("totalCost = %d (oracle %d), want %d", got, oracle.totalCost(items), want)
	}
	for idx := range items {
		for line := 0; line < tiny.NumLines(); line++ {
			if got := ev.moveDelta(items, idx, line); got != 0 || oracle.moveDelta(items, idx, line) != 0 {
				t.Errorf("moveDelta(item %d → line %d) = %d (oracle %d), want 0",
					idx, line, got, oracle.moveDelta(items, idx, line))
			}
		}
	}
}

// TestPlaceMatchesOracle holds Place to the line-by-line evaluator on
// random programs, traces, chunk sizes and geometries: the same total cost
// and the same delta on every proposal, so the same trajectory and layout.
// The TRG spans every procedure, so popular items have edges to chunks of
// procedures that are not items, and Init orders items unlike pop.IDs.
func TestPlaceMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := cache.Config{SizeBytes: 32 * (rng.Intn(12) + 2), LineBytes: 32, Assoc: 1}
		procs := make([]program.Procedure, rng.Intn(10)+2)
		for i := range procs {
			procs[i] = program.Procedure{Name: string(rune('a' + i)), Size: rng.Intn(2*cfg.SizeBytes) + 1}
		}
		prog := program.MustNew(procs)
		tr := &trace.Trace{}
		for i := 0; i < 400; i++ {
			tr.Append(trace.Event{Proc: program.ProcID(rng.Intn(1 + i%len(procs)))})
		}
		res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 16 << rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		pop := popular.Select(prog, tr, popular.Options{Coverage: 0.8})
		opts := Options{Steps: 400, Seed: seed}
		if seed%2 == 0 {
			for _, i := range rng.Perm(len(pop.IDs)) {
				opts.Init = append(opts.Init, place.Placed{Proc: pop.IDs[i], Line: rng.Intn(cfg.NumLines())})
			}
		}
		want := checkedPlace(t, prog, res, pop, cfg, opts)
		got, err := Place(prog, res, pop, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < prog.NumProcs(); p++ {
			if got.Addr(program.ProcID(p)) != want.Addr(program.ProcID(p)) {
				t.Fatalf("seed %d: procedure %d at %d, oracle trajectory %d", seed, p, got.Addr(program.ProcID(p)), want.Addr(program.ProcID(p)))
			}
		}
	}
}
