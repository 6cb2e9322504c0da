package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
)

// These differential tests pin the fast merge-loop paths (the indexed
// heaviest-edge heap behind graph.HeaviestEdge and the edge-driven
// alignment engines in align.go) to the retained naive implementations:
// an Edges()-scan edge selector and the bestAlignment/bestAlignmentAssoc
// oracles over rebuilt occupancy. Agreement must be exact — same merges,
// same offsets, same tuples, same final layout — across randomized
// programs and TRGs for every algorithm variant.

// scanHeaviest re-derives the heaviest edge with the (W desc, U asc, V asc)
// tie-break from the sorted edge list, independently of both the heap
// selector and the adjacency-scan oracle inside package graph.
func scanHeaviest(g *graph.Graph) (graph.Edge, bool) {
	var best graph.Edge
	found := false
	for _, e := range g.Edges() {
		if !found || e.W > best.W {
			best, found = e, true
		}
	}
	return best, found
}

// oracleAssign replays the original merge loop: linear-scan edge selection
// plus a naive alignment scorer, with no incremental state.
func oracleAssign(prog *program.Program, res *trg.Result, pop *popular.Set, period int, align func(n1, n2 *node) int) []place.Placed {
	if pop == nil {
		pop = popular.All(prog)
	}
	working := res.Select.Clone()
	nodes := make(map[graph.NodeID]*node)
	for _, p := range pop.IDs {
		working.AddNode(graph.NodeID(p))
		nodes[graph.NodeID(p)] = newNode(p)
	}
	for {
		e, ok := scanHeaviest(working)
		if !ok {
			break
		}
		n1, n2 := nodes[e.U], nodes[e.V]
		off := align(n1, n2)
		n2.shift(off, period)
		n1.absorb(n2)
		working.MergeNodes(e.U, e.V)
		delete(nodes, e.V)
	}
	var items []place.Placed
	for _, id := range working.Nodes() {
		items = append(items, nodes[id].procs...)
	}
	return items
}

// randomScenario builds a random program, trace and popular set. Sizes and
// trace shapes cover single-line, multi-line and larger-than-cache
// procedures, partial-extent events, and both full and trimmed popularity.
func randomScenario(rng *rand.Rand) (*program.Program, *trace.Trace, *popular.Set) {
	n := rng.Intn(10) + 3
	procs := make([]program.Procedure, n)
	for i := range procs {
		procs[i] = program.Procedure{
			Name: fmt.Sprintf("p%d", i),
			Size: rng.Intn(580) + 20,
		}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	events := rng.Intn(300) + 100
	for i := 0; i < events; i++ {
		p := program.ProcID(rng.Intn(n))
		ev := trace.Event{Proc: p}
		if rng.Intn(4) == 0 {
			ev.Extent = int32(rng.Intn(prog.Size(p)) + 1)
		}
		tr.Append(ev)
	}
	var pop *popular.Set
	if rng.Intn(2) == 0 {
		pop = popular.Select(prog, tr, popular.Options{Coverage: 0.8, MinCount: 2})
		if pop.Len() == 0 {
			pop = popular.All(prog)
		}
	} else {
		pop = popular.All(prog)
	}
	return prog, tr, pop
}

func layoutsEqual(t *testing.T, seed int64, variant string, got, want *program.Layout, prog *program.Program) {
	t.Helper()
	for p := 0; p < prog.NumProcs(); p++ {
		if got.Addr(program.ProcID(p)) != want.Addr(program.ProcID(p)) {
			t.Fatalf("seed %d %s: proc %d at addr %d, oracle %d",
				seed, variant, p, got.Addr(program.ProcID(p)), want.Addr(program.ProcID(p)))
		}
	}
}

func itemsEqual(t *testing.T, seed int64, variant string, got, want []place.Placed) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d %s: %d tuples, oracle %d", seed, variant, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d %s: tuple %d = %+v, oracle %+v", seed, variant, i, got[i], want[i])
		}
	}
}

// TestDifferentialDirectMapped: Assign and Place against the oracle over
// 120 random seeds (direct-mapped Figure 4 scoring).
func TestDifferentialDirectMapped(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 256, LineBytes: 32, Assoc: 1},
		{SizeBytes: 512, LineBytes: 32, Assoc: 1},
	}
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog, tr, pop := randomScenario(rng)
		cfg := cfgs[seed%2]
		res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32, Popular: pop})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		period := cfg.NumLines()
		align := func(n1, n2 *node) int {
			off, _ := bestAlignment(n1, n2, res.Place, res.Chunker, prog, cfg.LineBytes, period)
			return off
		}
		wantItems := oracleAssign(prog, res, pop, period, align)

		gotItems, err := Assign(prog, res, pop, cfg)
		if err != nil {
			t.Fatalf("seed %d: Assign: %v", seed, err)
		}
		itemsEqual(t, seed, "Assign", gotItems, wantItems)

		got, err := Place(prog, res, pop, cfg)
		if err != nil {
			t.Fatalf("seed %d: Place: %v", seed, err)
		}
		want, err := place.Linearize(prog, wantItems, pop.Unpopular(prog), cfg, period)
		if err != nil {
			t.Fatalf("seed %d: oracle linearize: %v", seed, err)
		}
		layoutsEqual(t, seed, "Place", got, want, prog)
	}
}

// TestDifferentialPageAware: the page-locality linearization consumes the
// same assignment tuples, so it must match the oracle end to end too.
func TestDifferentialPageAware(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		prog, tr, pop := randomScenario(rng)
		res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32, Popular: pop})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		period := cfg.NumLines()
		align := func(n1, n2 *node) int {
			off, _ := bestAlignment(n1, n2, res.Place, res.Chunker, prog, cfg.LineBytes, period)
			return off
		}
		wantItems := oracleAssign(prog, res, pop, period, align)

		got, err := PlacePageAware(prog, res, pop, cfg)
		if err != nil {
			t.Fatalf("seed %d: PlacePageAware: %v", seed, err)
		}
		want, err := place.LinearizePageAware(prog, wantItems, pop.Unpopular(prog), cfg, period, res.Select, 4)
		if err != nil {
			t.Fatalf("seed %d: oracle page-aware linearize: %v", seed, err)
		}
		layoutsEqual(t, seed, "PlacePageAware", got, want, prog)
	}
}

// TestDifferentialAssoc: the set-associative engine against the
// bestAlignmentAssoc oracle over the pair database, 100 seeds.
func TestDifferentialAssoc(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 2}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		prog, tr, pop := randomScenario(rng)
		res, db, err := trg.BuildPairs(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32, Popular: pop})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		period := cfg.NumSets()
		align := func(n1, n2 *node) int {
			off, _ := bestAlignmentAssoc(n1, n2, db, res.Chunker, prog, cfg.LineBytes, period)
			return off
		}
		wantItems := oracleAssign(prog, res, pop, period, align)

		got, err := PlaceAssoc(prog, res, db, pop, cfg)
		if err != nil {
			t.Fatalf("seed %d: PlaceAssoc: %v", seed, err)
		}
		want, err := place.Linearize(prog, wantItems, pop.Unpopular(prog), cfg, period)
		if err != nil {
			t.Fatalf("seed %d: oracle linearize: %v", seed, err)
		}
		layoutsEqual(t, seed, "PlaceAssoc", got, want, prog)
	}
}

// TestDifferentialLongChunks: Place and PlaceAssoc against their oracles,
// end to end and in the cost of every offset at every merge, on 64–512 B
// caches with 32–1024 B chunks, where one chunk's run of lines can cover
// more than half the period or more than all of it, so the offset search
// folds runs longer than the period.
func TestDifferentialLongChunks(t *testing.T) {
	sizes := []int{64, 128, 256, 512}
	chunks := []int{32, 64, 128, 256, 512, 1024}
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		prog, tr, pop := randomScenario(rng)
		size, chunk := sizes[seed%4], chunks[seed/4%6]
		for _, assoc := range []int{1, 2} {
			cfg := cache.Config{SizeBytes: size, LineBytes: 32, Assoc: assoc}
			ctx := fmt.Sprintf("%dB %d-way chunk %d", size, assoc, chunk)
			opts := trg.Options{CacheBytes: size, ChunkSize: chunk, Popular: pop}
			var got *program.Layout
			var wantItems []place.Placed
			period := cfg.NumSets()
			if assoc == 1 {
				res, err := trg.Build(prog, tr, opts)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, ctx, err)
				}
				wantItems = oracleAssign(prog, res, pop, period, func(n1, n2 *node) int {
					off, _ := bestAlignment(n1, n2, res.Place, res.Chunker, prog, cfg.LineBytes, period)
					return off
				})
				got, err = Place(prog, res, pop, cfg)
				if err != nil {
					t.Fatalf("seed %d %s: Place: %v", seed, ctx, err)
				}
				eng := newDirectEngine(prog, res.Place, res.Chunker, cfg.LineBytes, period)
				checkEngineSteps(t, fmt.Sprintf("seed %d %s", seed, ctx), prog, res, pop, cfg.LineBytes, period, eng, &eng.occState,
					func(n1, n2 *node) []int64 {
						return alignCosts(n1, n2, res.Place, res.Chunker, prog, cfg.LineBytes, period)
					})
			} else {
				res, db, err := trg.BuildPairs(prog, tr, opts)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, ctx, err)
				}
				wantItems = oracleAssign(prog, res, pop, period, func(n1, n2 *node) int {
					off, _ := bestAlignmentAssoc(n1, n2, db, res.Chunker, prog, cfg.LineBytes, period)
					return off
				})
				got, err = PlaceAssoc(prog, res, db, pop, cfg)
				if err != nil {
					t.Fatalf("seed %d %s: PlaceAssoc: %v", seed, ctx, err)
				}
				eng, err := newAssocEngine(prog, db, res.Chunker, cfg.LineBytes, period)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, ctx, err)
				}
				checkEngineSteps(t, fmt.Sprintf("seed %d %s", seed, ctx), prog, res, pop, cfg.LineBytes, period, eng, &eng.occState,
					func(n1, n2 *node) []int64 {
						return alignCostsAssoc(n1, n2, db, res.Chunker, prog, cfg.LineBytes, period)
					})
			}
			want, err := place.Linearize(prog, wantItems, pop.Unpopular(prog), cfg, period)
			if err != nil {
				t.Fatalf("seed %d %s: oracle linearize: %v", seed, ctx, err)
			}
			layoutsEqual(t, seed, ctx, got, want, prog)
		}
	}
}

// TestDirectEngineMatchesOracleScorer compares the edge-driven scorer and
// the naive scorer on identical node states merge by merge, rather than
// only end to end: the cost of every offset must agree at every step.
func TestDirectEngineMatchesOracleScorer(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		prog, tr, pop := randomScenario(rng)
		res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32, Popular: pop})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		period := cfg.NumLines()
		eng := newDirectEngine(prog, res.Place, res.Chunker, cfg.LineBytes, period)
		checkEngineSteps(t, fmt.Sprintf("seed %d", seed), prog, res, pop, cfg.LineBytes, period, eng, &eng.occState,
			func(n1, n2 *node) []int64 {
				return alignCosts(n1, n2, res.Place, res.Chunker, prog, cfg.LineBytes, period)
			})
	}
}

// checkEngineSteps replays the merge loop with eng, whose state is occ,
// and checks at every merge the engine's cost of every offset against the
// oracle's costs on the same node state, and the engine's incremental
// occupancy against a rebuild of the merged node.
func checkEngineSteps(t *testing.T, ctx string, prog *program.Program, res *trg.Result, pop *popular.Set, lineBytes, period int,
	eng interface {
		alignEngine
		addTerms(u, v graph.NodeID)
	}, occ *occState, oracle func(n1, n2 *node) []int64) {
	t.Helper()
	working := res.Select.Clone()
	nodes := make(map[graph.NodeID]*node)
	for _, p := range pop.IDs {
		working.AddNode(graph.NodeID(p))
		nodes[graph.NodeID(p)] = newNode(p)
		eng.addNode(graph.NodeID(p), p)
	}
	for _, id := range working.Nodes() {
		if _, ok := nodes[id]; !ok {
			return // mismatched popular mask; assign would error
		}
	}
	for step := 0; ; step++ {
		e, ok := scanHeaviest(working)
		if !ok {
			break
		}
		n1, n2 := nodes[e.U], nodes[e.V]
		want := oracle(n1, n2)
		eng.addTerms(e.U, e.V)
		got := occ.offsets.Costs()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s step %d: engine cost of offset %d is %d, oracle %d", ctx, step, i, got[i], want[i])
			}
		}
		wantOff, _ := firstMin(want)
		if gotOff := eng.bestOffset(e.U, e.V); gotOff != wantOff {
			t.Fatalf("%s step %d: engine offset %d, oracle %d", ctx, step, gotOff, wantOff)
		}
		n2.shift(wantOff, period)
		n1.absorb(n2)
		eng.merged(e.U, e.V, wantOff)
		working.MergeNodes(e.U, e.V)
		delete(nodes, e.V)

		rebuilt := occupancy(n1, res.Chunker, prog, lineBytes, period)
		var rebuiltEntries, engineEntries int
		for _, cs := range rebuilt {
			rebuiltEntries += len(cs)
		}
		for _, c := range occ.nodeChunks[e.U] {
			engineEntries += occ.lines[c]
		}
		if rebuiltEntries != engineEntries {
			t.Fatalf("%s step %d: engine occupancy has %d entries, rebuild %d",
				ctx, step, engineEntries, rebuiltEntries)
		}
	}
}
