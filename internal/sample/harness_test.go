package sample

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/randcell"
	"repro/internal/trace"
)

// accuracyCell is one (program seed, algorithm) comparison of the sampled
// estimate against the exact RunTrace oracle.
type accuracyCell struct {
	Seed    int64
	Alg     string
	Exact   float64
	Sampled Estimate
}

// accuracyCells places seed's random phased program (24 procedures, 8000
// events) with every randcell algorithm on a 1 KB direct-mapped cache —
// small relative to the programs, so conflict misses happen — and scores
// each layout both ways.
func accuracyCells(t *testing.T, seed int64) []accuracyCell {
	t.Helper()
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}
	rng := rand.New(rand.NewSource(seed))
	prog := randcell.Program(rng, 24)
	tr := randcell.PhasedTrace(rng, prog, 8000)
	placed, err := randcell.Layouts(prog, tr, cfg, seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	sim := cache.MustNewSim(cfg)
	bs := cache.MustNewBatchSim(cfg)
	evals := map[*trace.Trace]*Evaluator{}
	var cells []accuracyCell
	for _, pl := range placed {
		ev := evals[pl.Trace]
		if ev == nil {
			plan, err := NewPlan(pl.Prog, pl.Trace, cfg.LineBytes, Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ev = NewEvaluator(cache.CompileTrace(pl.Prog, pl.Trace), plan)
			evals[pl.Trace] = ev
		}
		ests, err := ev.MissRateBatch(bs, []*program.Layout{pl.Layout})
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, pl.Alg, err)
		}
		cells = append(cells, accuracyCell{
			Seed:    seed,
			Alg:     pl.Alg,
			Exact:   sim.RunTrace(pl.Layout, pl.Trace).MissRate(),
			Sampled: ests[0],
		})
	}
	return cells
}

// TestHarnessAccuracy is the estimator's accuracy harness: randomized
// programs × the seven placement algorithms, sampled estimate vs the exact
// cache.RunTrace oracle. The exact simulators stay the source of truth;
// the sampler ships only under these thresholds: mean absolute miss-rate
// error at most half a percentage point, bounded worst case and bias, and
// confidence intervals that actually cover the exact value.
func TestHarnessAccuracy(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	var cells []accuracyCell
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cells = append(cells, accuracyCells(t, seed)...)
	}
	algs := randcell.Algorithms()
	if want := seeds * len(algs); len(cells) != want {
		t.Fatalf("harness produced %d cells, want %d", len(cells), want)
	}
	perAlg := map[string]int{}
	var sumAbs, maxAbs, sumSigned float64
	covered := 0
	for _, c := range cells {
		perAlg[c.Alg]++
		if c.Exact < 0 || c.Exact > 1 || c.Sampled.MissRate < 0 || c.Sampled.MissRate > 1 {
			t.Errorf("cell %+v has miss rates outside [0,1]", c)
		}
		err := c.Sampled.MissRate - c.Exact
		sumAbs += math.Abs(err)
		maxAbs = math.Max(maxAbs, math.Abs(err))
		sumSigned += err
		if c.Sampled.Covers(c.Exact) {
			covered++
		}
	}
	for _, alg := range algs {
		if perAlg[alg] != seeds {
			t.Errorf("algorithm %q has %d cells, want %d", alg, perAlg[alg], seeds)
		}
	}

	n := float64(len(cells))
	if mae := sumAbs / n; mae > 0.005 {
		t.Errorf("mean abs error %.4fpp exceeds the 0.5pp acceptance bound", mae*100)
	}
	if maxAbs > 0.02 {
		t.Errorf("max abs error %.4fpp exceeds 2pp", maxAbs*100)
	}
	if bias := sumSigned / n; bias > 0.005 || bias < -0.005 {
		t.Errorf("estimator bias %.4fpp outside ±0.5pp", bias*100)
	}
	if cov := float64(covered) / n; cov < 0.9 {
		t.Errorf("CI coverage %.2f below 0.90", cov)
	}
}
