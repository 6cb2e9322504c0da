// Differential tests for the layout-batched replay engine: the same
// randomized program/trace/placement grid as the one-lane engine's suite,
// but scored through BatchSim at batch sizes from one lane to several
// times the algorithm count — every lane must agree byte-for-byte with
// the general RunTrace oracle, at every geometry, and abandonment must
// never change a surviving lane or retire a lane whose final count was
// within budget.
package cache_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/program"
)

// batchSizes spans the interesting regimes: a single lane (Sim's
// compiled runs), small batches, an odd size that never divides the
// layout count evenly, the search's default width, and an over-wide
// batch that forces lane state well past any fixed-size assumption.
var batchSizes = []int{1, 2, 7, 16, 64}

// namedLayout pairs a layout with its algorithm name for error messages.
type namedLayout struct {
	name   string
	layout *program.Layout
}

// sortedLayouts flattens the diffLayouts map deterministically.
func sortedLayouts(m map[string]*program.Layout) []namedLayout {
	out := make([]namedLayout, 0, len(m))
	for name, l := range m {
		out = append(out, namedLayout{name, l})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// lanePool repeats the placed layouts (with distinct perturbed copies, so
// wide batches are not all-identical lanes) until at least n lanes exist.
func lanePool(rng *rand.Rand, prog *program.Program, base []namedLayout, n int) []namedLayout {
	pool := append([]namedLayout(nil), base...)
	for i := 0; len(pool) < n; i++ {
		src := base[i%len(base)]
		l := src.layout.Clone()
		// Shift one random procedure by a few lines to make the copy a
		// genuinely different candidate.
		p := program.ProcID(rng.Intn(prog.NumProcs()))
		l.SetAddr(p, l.Addr(p)+32*(1+rng.Intn(8)))
		pool = append(pool, namedLayout{fmt.Sprintf("%s+perturb%d", src.name, i), l})
	}
	return pool[:n]
}

// TestBatchMatchesOracle is the main differential grid: randomized
// programs × every placement algorithm × every geometry × every batch
// size, each lane's Stats byte-identical to the general RunTrace oracle.
// One BatchSim is reused across batch sizes within a config, so the
// epoch-stamped Reset and buffer-growth paths are part of what is
// verified.
func TestBatchMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			prog := randProgram(rng, 60)
			train := randTrace(rng, prog, 300)
			test := randTrace(rng, prog, 300)
			base := sortedLayouts(diffLayouts(t, rng, prog, train))
			maxK := batchSizes[len(batchSizes)-1]
			pool := lanePool(rng, prog, base, maxK)
			ct := cache.CompileTrace(prog, test)

			for _, cfg := range diffConfigs {
				// Oracle stats per lane, computed once per config.
				want := make([]cache.Stats, len(pool))
				for i, nl := range pool {
					want[i] = cache.MustNewSim(cfg).RunTraceOracle(nl.layout, test)
				}
				bs := cache.MustNewBatchSim(cfg)
				for _, k := range batchSizes {
					tables := make([]*cache.CompiledLayout, k)
					for i := 0; i < k; i++ {
						var err error
						if tables[i], err = cache.CompileLayout(cfg, ct, pool[i].layout); err != nil {
							t.Fatal(err)
						}
					}
					res, err := bs.Run(ct, tables, cache.BatchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Stats) != k {
						t.Fatalf("cfg %+v k=%d: %d lane stats", cfg, k, len(res.Stats))
					}
					for i := 0; i < k; i++ {
						if res.Abandoned[i] {
							t.Errorf("cfg %+v k=%d lane %s: abandoned without a budget", cfg, k, pool[i].name)
						}
						if res.Stats[i] != want[i] {
							t.Errorf("cfg %+v k=%d lane %s: batch stats %+v != oracle %+v",
								cfg, k, pool[i].name, res.Stats[i], want[i])
						}
					}
					if res.Batch.Lanes != int64(k) || res.Batch.Runs != 1 {
						t.Errorf("cfg %+v k=%d: batch accounting %+v", cfg, k, res.Batch)
					}
					if got := res.Batch.LaneEvents; got != int64(k*ct.Len()) {
						t.Errorf("cfg %+v k=%d: walked %d lane-events, want %d", cfg, k, got, k*ct.Len())
					}
				}
			}
		})
	}
}

// TestRunCompiledBatchConvenience covers the package-level wrapper on the
// paper geometry.
func TestRunCompiledBatchConvenience(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := randProgram(rng, 40)
	train := randTrace(rng, prog, 200)
	test := randTrace(rng, prog, 200)
	base := sortedLayouts(diffLayouts(t, rng, prog, train))
	layouts := make([]*program.Layout, len(base))
	for i, nl := range base {
		layouts[i] = nl.layout
	}
	ct := cache.CompileTrace(prog, test)
	cfg := cache.PaperConfig
	res, err := cache.RunCompiledBatch(cfg, ct, layouts, cache.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, nl := range base {
		want := cache.MustNewSim(cfg).RunTraceOracle(nl.layout, test)
		if res.Stats[i] != want {
			t.Errorf("lane %s: %+v != oracle %+v", nl.name, res.Stats[i], want)
		}
	}
}

// TestBatchAbandonment pins the abandonment contract: with each lane's
// budget set to its own final miss count, no lane retires and the stats
// stay byte-identical; with the budget one below, every lane with at
// least one miss retires, its partial count already exceeds the budget,
// and the batch counters record the saved walk.
func TestBatchAbandonment(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prog := randProgram(rng, 60)
	train := randTrace(rng, prog, 300)
	test := randTrace(rng, prog, 300)
	base := sortedLayouts(diffLayouts(t, rng, prog, train))
	ct := cache.CompileTrace(prog, test)

	for _, cfg := range diffConfigs {
		bs := cache.MustNewBatchSim(cfg)
		tables := make([]*cache.CompiledLayout, len(base))
		for i, nl := range base {
			var err error
			if tables[i], err = cache.CompileLayout(cfg, ct, nl.layout); err != nil {
				t.Fatal(err)
			}
		}
		full, err := bs.Run(ct, tables, cache.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}

		// Budget exactly at the final count: monotonicity means the
		// running count never exceeds it, so nothing retires.
		exact := make([]int64, len(base))
		for i := range exact {
			exact[i] = full.Stats[i].Misses
		}
		res, err := bs.Run(ct, tables, cache.BatchOptions{Budgets: exact})
		if err != nil {
			t.Fatal(err)
		}
		for i, nl := range base {
			if res.Abandoned[i] {
				t.Errorf("cfg %+v lane %s: retired at budget == final misses", cfg, nl.name)
			}
			if res.Stats[i] != full.Stats[i] {
				t.Errorf("cfg %+v lane %s: budgeted stats %+v != unbudgeted %+v",
					cfg, nl.name, res.Stats[i], full.Stats[i])
			}
		}

		// Budget one below the final count: every lane with misses must
		// retire, with partial counts already over budget.
		tight := make([]int64, len(base))
		for i := range tight {
			tight[i] = full.Stats[i].Misses - 1
		}
		res, err = bs.Run(ct, tables, cache.BatchOptions{Budgets: tight})
		if err != nil {
			t.Fatal(err)
		}
		for i, nl := range base {
			if full.Stats[i].Misses == 0 {
				continue
			}
			if !res.Abandoned[i] {
				t.Errorf("cfg %+v lane %s: survived budget below final misses", cfg, nl.name)
				continue
			}
			if res.Stats[i].Misses <= tight[i] {
				t.Errorf("cfg %+v lane %s: retired at %d misses, budget %d",
					cfg, nl.name, res.Stats[i].Misses, tight[i])
			}
			if res.Stats[i].Misses > full.Stats[i].Misses {
				t.Errorf("cfg %+v lane %s: partial misses %d exceed full count %d",
					cfg, nl.name, res.Stats[i].Misses, full.Stats[i].Misses)
			}
		}
		if res.Batch.AbandonedLanes == 0 {
			t.Errorf("cfg %+v: no lanes abandoned under tight budgets", cfg)
		}
		if res.Batch.LaneEvents+res.Batch.LaneEventsSaved != int64(len(base)*ct.Len()) {
			t.Errorf("cfg %+v: walked %d + saved %d != %d total lane-events",
				cfg, res.Batch.LaneEvents, res.Batch.LaneEventsSaved, len(base)*ct.Len())
		}
	}
}

// TestBatchSliceWindows verifies the windowed contract the sampled
// evaluators rely on: binding once and Replaying consecutive Slices of a
// compilation accumulates, per lane, exactly the per-reference oracle's
// per-window deltas — and the window sum reproduces the full-trace run.
func TestBatchSliceWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prog := randProgram(rng, 50)
	train := randTrace(rng, prog, 250)
	test := randTrace(rng, prog, 257) // odd length: ragged final window
	base := sortedLayouts(diffLayouts(t, rng, prog, train))
	ct := cache.CompileTrace(prog, test)

	for _, cfg := range diffConfigs {
		tables := make([]*cache.CompiledLayout, len(base))
		for i, nl := range base {
			var err error
			if tables[i], err = cache.CompileLayout(cfg, ct, nl.layout); err != nil {
				t.Fatal(err)
			}
		}
		full, err := cache.MustNewBatchSim(cfg).Run(ct, tables, cache.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}

		bs := cache.MustNewBatchSim(cfg)
		if err := bs.Bind(tables); err != nil {
			t.Fatal(err)
		}
		// Per-reference oracle simulators, one per lane, replaying the
		// same window sequence without resets.
		sims := make([]*cache.Sim, len(base))
		for i := range sims {
			sims[i] = cache.MustNewSim(cfg)
			sims[i].Reset()
		}
		sum := make([]cache.Stats, len(base))
		for lo := 0; lo < ct.Len(); lo += 40 {
			hi := lo + 40
			if hi > ct.Len() {
				hi = ct.Len()
			}
			win := ct.Slice(lo, hi)
			deltas, err := bs.Replay(win)
			if err != nil {
				t.Fatal(err)
			}
			for i, nl := range base {
				want := sims[i].ReplayWindowOracle(nl.layout, test, lo, hi)
				if deltas[i] != want {
					t.Errorf("cfg %+v window [%d:%d) lane %s: batch delta %+v != oracle %+v",
						cfg, lo, hi, nl.name, deltas[i], want)
				}
				sum[i].Add(deltas[i])
			}
		}
		for i, nl := range base {
			if sum[i] != full.Stats[i] {
				t.Errorf("cfg %+v lane %s: window sum %+v != full run %+v",
					cfg, nl.name, sum[i], full.Stats[i])
			}
		}
	}
}

// TestBatchBindErrors covers the binding misuse guards: geometry
// mismatch, mixed compilation families, and a budget/lane count mismatch.
func TestBatchBindErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	prog := randProgram(rng, 20)
	test := randTrace(rng, prog, 50)
	ct := cache.CompileTrace(prog, test)
	ct2 := cache.CompileTrace(prog, test) // distinct compilation family
	layout := program.DefaultLayout(prog)

	cfgA := cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 1}
	cfgB := cache.Config{SizeBytes: 3072, LineBytes: 32, Assoc: 1}
	ta, err := cache.CompileLayout(cfgA, ct, layout)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cache.CompileLayout(cfgB, ct, layout)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cache.CompileLayout(cfgA, ct2, layout)
	if err != nil {
		t.Fatal(err)
	}

	bs := cache.MustNewBatchSim(cfgA)
	if err := bs.Bind([]*cache.CompiledLayout{tb}); err == nil {
		t.Error("bound a table compiled for another geometry")
	}
	if err := bs.Bind([]*cache.CompiledLayout{ta, t2}); err == nil {
		t.Error("bound tables from different compilation families")
	}
	if _, err := bs.Run(ct, []*cache.CompiledLayout{ta}, cache.BatchOptions{Budgets: []int64{1, 2}}); err == nil {
		t.Error("accepted a budget vector of the wrong length")
	}
	if err := bs.Bind([]*cache.CompiledLayout{ta}); err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Replay(ct2); err == nil {
		t.Error("replayed a trace outside the bound compilation family")
	}
	// Slices of the bound family are fine.
	if _, err := bs.Replay(ct.Slice(0, 10)); err != nil {
		t.Errorf("slice of the bound family rejected: %v", err)
	}
}

// TestBatchEmpty pins the degenerate shapes: zero lanes and an empty
// trace both succeed with zeroed output.
func TestBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	prog := randProgram(rng, 10)
	test := randTrace(rng, prog, 30)
	ct := cache.CompileTrace(prog, test)
	cfg := cache.PaperConfig

	res, err := cache.RunCompiledBatch(cfg, ct, nil, cache.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 0 || res.Batch.LaneEvents != 0 {
		t.Errorf("zero-lane run produced %+v", res)
	}

	layout := program.DefaultLayout(prog)
	res, err = cache.RunCompiledBatch(cfg, ct.Slice(0, 0), []*program.Layout{layout}, cache.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[0] != (cache.Stats{}) {
		t.Errorf("empty-trace run produced %+v", res.Stats[0])
	}
}

// TestBatchAccessors pins the small API surface around the engine: the
// compiled table remembers its layout, the simulator reports its
// configuration and cumulative work counters, MustNewBatchSim rejects an
// invalid geometry by panicking, and BatchStats.Add merges every field.
func TestBatchAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prog := randProgram(rng, 10)
	test := randTrace(rng, prog, 40)
	ct := cache.CompileTrace(prog, test)
	cfg := cache.PaperConfig
	layout := program.DefaultLayout(prog)

	cl, err := cache.CompileLayout(cfg, ct, layout)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Layout() != layout {
		t.Error("CompiledLayout.Layout lost its source layout")
	}

	bs := cache.MustNewBatchSim(cfg)
	if bs.Config() != cfg {
		t.Errorf("Config() = %+v, want %+v", bs.Config(), cfg)
	}
	if _, err := bs.Run(ct, []*cache.CompiledLayout{cl}, cache.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	got := bs.Batch()
	if got.Runs != 1 || got.Lanes != 1 || got.LaneEvents == 0 {
		t.Errorf("cumulative counters after one run: %+v", got)
	}

	var sum cache.BatchStats
	sum.Add(got)
	sum.Add(got)
	want := cache.BatchStats{
		Runs: 2 * got.Runs, Lanes: 2 * got.Lanes, AbandonedLanes: 2 * got.AbandonedLanes,
		LaneEvents: 2 * got.LaneEvents, LaneEventsSaved: 2 * got.LaneEventsSaved,
	}
	if sum != want {
		t.Errorf("BatchStats.Add: got %+v, want %+v", sum, want)
	}

	defer func() {
		if recover() == nil {
			t.Error("MustNewBatchSim accepted an invalid configuration")
		}
	}()
	cache.MustNewBatchSim(cache.Config{})
}
