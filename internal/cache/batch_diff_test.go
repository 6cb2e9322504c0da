// Differential tests for the compiled replay engine: the same randomized
// program/trace/placement grid as Sim's suite, but scored through
// BatchSim — a pool of layouts walked one after another by one simulator,
// and windowed replays of a bound layout — must agree byte-for-byte with
// the per-reference oracles at every geometry, and abandonment must never
// change a completed walk or stop a walk whose final count was within
// budget.
package cache_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/program"
)

// poolSize is how many layouts TestBatchMatchesOracle scores per geometry:
// every placement algorithm's layout plus perturbed copies.
const poolSize = 64

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

// layoutPool repeats the placed layouts (with distinct perturbed copies,
// so the pool is not a handful of identical layouts) until n exist.
func layoutPool(rng *rand.Rand, prog *program.Program, base []namedLayout, n int) []namedLayout {
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
// programs × every placement algorithm (and perturbed copies) × every
// geometry, the whole pool scored by one Run per geometry and each
// layout's Stats byte-identical to the general RunTrace oracle. The one
// simulator walks every layout in turn, so buffer reuse across layouts
// with different line extents — first-touch stamps grown or resliced,
// residency stamps left by the previous binding — is part of what is
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
			pool := layoutPool(rng, prog, base, poolSize)
			ct := cache.CompileTrace(prog, test)

			for _, cfg := range diffConfigs {
				tables := make([]*cache.CompiledLayout, len(pool))
				for i, nl := range pool {
					var err error
					if tables[i], err = cache.CompileLayout(cfg, ct, nl.layout); err != nil {
						t.Fatal(err)
					}
				}
				res, err := cache.MustNewBatchSim(cfg).Run(ct, tables, cache.BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Stats) != len(pool) {
					t.Fatalf("cfg %+v: %d stats for %d layouts", cfg, len(res.Stats), len(pool))
				}
				for i, nl := range pool {
					if res.Abandoned[i] {
						t.Errorf("cfg %+v layout %s: abandoned without a budget", cfg, nl.name)
					}
					if want := cache.NewRefSim(cfg).RunTraceOracle(nl.layout, test); res.Stats[i] != want {
						t.Errorf("cfg %+v layout %s: engine stats %+v != oracle %+v",
							cfg, nl.name, res.Stats[i], want)
					}
				}
				n := int64(len(pool))
				if want := (cache.BatchStats{Runs: 1, Lanes: n, LaneEvents: n * int64(ct.Len())}); res.Batch != want {
					t.Errorf("cfg %+v: work accounting %+v, want %+v", cfg, res.Batch, want)
				}
			}
		})
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
// evaluators rely on: binding a layout once and Replaying consecutive
// Slices of its compilation yields exactly the per-reference oracle's
// per-window deltas — and the window sum reproduces the full-trace run.
// One simulator is rebound per layout.
func TestBatchSliceWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prog := randProgram(rng, 50)
	train := randTrace(rng, prog, 250)
	test := randTrace(rng, prog, 257) // odd length: ragged final window
	base := sortedLayouts(diffLayouts(t, rng, prog, train))
	ct := cache.CompileTrace(prog, test)

	for _, cfg := range diffConfigs {
		bs := cache.MustNewBatchSim(cfg)
		for _, nl := range base {
			tab, err := cache.CompileLayout(cfg, ct, nl.layout)
			if err != nil {
				t.Fatal(err)
			}
			if err := bs.Bind(tab); err != nil {
				t.Fatal(err)
			}
			// The per-reference oracle replays the same window sequence
			// without resets.
			oracle := cache.NewRefSim(cfg)
			var sum cache.Stats
			for lo := 0; lo < ct.Len(); lo += 40 {
				hi := min(lo+40, ct.Len())
				delta, err := bs.Replay(ct.Slice(lo, hi))
				if err != nil {
					t.Fatal(err)
				}
				if want := oracle.ReplayWindowOracle(nl.layout, test, lo, hi); delta != want {
					t.Errorf("cfg %+v window [%d:%d) layout %s: delta %+v != oracle %+v",
						cfg, lo, hi, nl.name, delta, want)
				}
				sum.Add(delta)
			}
			if full := cache.NewRefSim(cfg).RunTraceOracle(nl.layout, test); sum != full {
				t.Errorf("cfg %+v layout %s: window sum %+v != full run %+v", cfg, nl.name, sum, full)
			}
		}
	}
}

// TestBatchBindErrors covers the misuse guards: geometry mismatch at Bind
// and Run, a Replay before any Bind, a budget/table count mismatch, and
// traces outside a table's compilation family at Run and Replay. A table
// from another compilation of the same program indexes classes the
// replayed trace numbers differently: against a trace with more classes
// it would read past its arrays, against one with fewer it would score
// the wrong spans.
func TestBatchBindErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	prog := randProgram(rng, 20)
	test := randTrace(rng, prog, 50)
	ct := cache.CompileTrace(prog, test)
	ct2 := cache.CompileTrace(prog, test) // distinct compilation family
	layout := program.DefaultLayout(prog)

	cfgA := cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 1}
	cfgB := cache.Config{SizeBytes: 3072, LineBytes: 32, Assoc: 1}
	compile := func(cfg cache.Config, ct *cache.CompiledTrace) *cache.CompiledLayout {
		t.Helper()
		tab, err := cache.CompileLayout(cfg, ct, layout)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	ta, tb, t2 := compile(cfgA, ct), compile(cfgB, ct), compile(cfgA, ct2)

	bs := cache.MustNewBatchSim(cfgA)
	if _, err := bs.Replay(ct); err == nil {
		t.Error("replayed before any Bind")
	}
	if err := bs.Bind(tb); err == nil {
		t.Error("bound a table compiled for another geometry")
	}
	if _, err := bs.Run(ct, []*cache.CompiledLayout{ta, tb}, cache.BatchOptions{}); err == nil {
		t.Error("ran a table compiled for another geometry")
	}
	if _, err := bs.Run(ct, []*cache.CompiledLayout{ta, t2}, cache.BatchOptions{}); err == nil {
		t.Error("ran a table from another compilation family")
	}
	if _, err := bs.Run(ct, []*cache.CompiledLayout{ta}, cache.BatchOptions{Budgets: []int64{1, 2}}); err == nil {
		t.Error("accepted a budget vector of the wrong length")
	}

	ctLong := cache.CompileTrace(prog, randTrace(rng, prog, 200))
	ctOne := cache.CompileTrace(prog, randTrace(rng, prog, 1))
	ctFive := cache.CompileTrace(prog, randTrace(rng, prog, 5))
	if _, err := bs.Run(ctLong, []*cache.CompiledLayout{compile(cfgA, ctOne)}, cache.BatchOptions{}); err == nil {
		t.Error("ran a 1-event compilation's table on a 200-event compilation")
	}
	if _, err := bs.Run(ctFive, []*cache.CompiledLayout{compile(cfgA, ctLong)}, cache.BatchOptions{}); err == nil {
		t.Error("ran a 200-event compilation's table on a 5-event compilation")
	}

	if err := bs.Bind(ta); err != nil {
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

	bs := cache.MustNewBatchSim(cfg)
	res, err := bs.Run(ct, nil, cache.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 0 || res.Batch.LaneEvents != 0 {
		t.Errorf("zero-lane run produced %+v", res)
	}

	empty := ct.Slice(0, 0)
	cl, err := cache.CompileLayout(cfg, empty, program.DefaultLayout(prog))
	if err != nil {
		t.Fatal(err)
	}
	res, err = bs.Run(empty, []*cache.CompiledLayout{cl}, cache.BatchOptions{})
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
