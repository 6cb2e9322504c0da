package staticcache

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/randcell"
	"repro/internal/trace"
)

// harnessGeometries is the soundness harness's geometry spread: the
// paper's small direct-mapped shape, 2-way and 4-way LRU, and a
// non-power-of-two set count (48 lines, 24 sets) exercising the div/mod
// indexing path. Placement runs against the first.
var harnessGeometries = []cache.Config{
	{SizeBytes: 1024, LineBytes: 32, Assoc: 1},
	{SizeBytes: 1024, LineBytes: 32, Assoc: 2},
	{SizeBytes: 2048, LineBytes: 32, Assoc: 4},
	{SizeBytes: 1536, LineBytes: 32, Assoc: 2},
}

// soundnessCell is one (program seed, algorithm, geometry) check of the
// static interval against the exact RunTrace oracle.
type soundnessCell struct {
	Alg      string
	Geometry cache.Config
	Exact    cache.Stats
	Interval Interval
	// Violations is empty when the interval soundly brackets the exact
	// run; otherwise it names every broken bound.
	Violations []string
}

// soundnessCells places seed's random phased program (24 procedures, 4000
// events) with every randcell algorithm under the first geometry and
// checks each layout under every geometry: a layout is a layout, so
// soundness cannot depend on which geometry the placer optimized for.
func soundnessCells(t *testing.T, seed int64) []soundnessCell {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prog := randcell.Program(rng, 24)
	tr := randcell.PhasedTrace(rng, prog, 4000)
	placed, err := randcell.Layouts(prog, tr, harnessGeometries[0], seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	var cells []soundnessCell
	for _, geo := range harnessGeometries {
		sim := cache.MustNewSim(geo)
		// One model per (program pair, geometry), shared by the seven
		// layouts of that pair — the sweep-shaped reuse Analyze is for.
		models := map[*trace.Trace]*Model{}
		for _, pl := range placed {
			model := models[pl.Trace]
			if model == nil {
				if model, err = NewModel(pl.Prog, pl.Trace, geo); err != nil {
					t.Fatalf("seed %d %+v: %v", seed, geo, err)
				}
				models[pl.Trace] = model
			}
			exact := sim.RunTrace(pl.Layout, pl.Trace)
			iv := model.Analyze(pl.Layout)
			cell := soundnessCell{Alg: pl.Alg, Geometry: geo, Exact: exact, Interval: iv}
			for _, v := range CheckBounds(iv, exact) {
				cell.Violations = append(cell.Violations, v.String())
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// TestHarnessSoundness is the zero-tolerance soundness gate: randomized
// programs × the seven placement algorithms × the geometry spread, every
// cell's exact run inside its static interval. Unlike the sampled
// estimator's accuracy harness, which measures error, this one tolerates
// none: a single miss count outside its interval, or a refs/cold mismatch,
// is a soundness bug. Seeds run as parallel subtests; CI scales their
// count up through STATICCACHE_SEEDS (the workflow runs ≥200 under
// -race), while the in-tree default keeps `go test ./...` fast.
func TestHarnessSoundness(t *testing.T) {
	seeds := 6
	if s := os.Getenv("STATICCACHE_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad STATICCACHE_SEEDS=%q", s)
		}
		seeds = n
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cells := soundnessCells(t, seed)
			if want := len(randcell.Algorithms()) * len(harnessGeometries); len(cells) != want {
				t.Fatalf("cells: %d, want %d", len(cells), want)
			}
			for _, c := range cells {
				if len(c.Violations) != 0 {
					t.Errorf("%s %+v: %v (exact misses %d, interval [%d, %d])",
						c.Alg, c.Geometry, c.Violations,
						c.Exact.Misses, c.Interval.LowerMisses, c.Interval.UpperMisses)
				}
			}
		})
	}
}

func TestHarnessGeometriesIncludeNonPowerOfTwo(t *testing.T) {
	nonPow2 := false
	for _, g := range harnessGeometries {
		if err := g.Validate(); err != nil {
			t.Errorf("invalid harness geometry %+v: %v", g, err)
		}
		if s := g.NumSets(); s&(s-1) != 0 {
			nonPow2 = true
		}
	}
	if !nonPow2 {
		t.Error("harness geometry spread lost its non-power-of-two set count")
	}
	if len(harnessGeometries) < 4 {
		t.Errorf("geometry spread shrank to %d shapes; the gate requires ≥4", len(harnessGeometries))
	}
}
