package sample

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/split"
	"repro/internal/trace"
	"repro/internal/trg"
	"repro/internal/wcg"
)

// This file is the estimator's accuracy harness: randomized programs ×
// the seven placement algorithms, sampled estimate vs the exact
// cache.RunTrace oracle, with signed errors and confidence-interval
// coverage recorded per cell. The harness is what justifies trusting the
// sampler — the exact simulators stay the source of truth, and the sampler
// is accepted only with this measured, bounded error (the package tests
// and the CI experiments gate both enforce it).

// HarnessOptions configures an accuracy run.
type HarnessOptions struct {
	// Seeds is the number of randomized programs (default 3).
	Seeds int
	// Events is the trace length per program (default 8000).
	Events int
	// Procs is the program size in procedures (default 24).
	Procs int
	// Cache is the simulated geometry (default 1 KB direct-mapped, 32-byte
	// lines — small relative to the programs, so conflict misses happen).
	Cache cache.Config
	// Sample configures the estimator under test.
	Sample Options
}

func (o *HarnessOptions) setDefaults() {
	if o.Seeds == 0 {
		o.Seeds = 3
	}
	if o.Events == 0 {
		o.Events = 8000
	}
	if o.Procs == 0 {
		o.Procs = 24
	}
	if o.Cache == (cache.Config{}) {
		o.Cache = cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}
	}
}

// HarnessCell is one (program seed, algorithm) comparison.
type HarnessCell struct {
	Seed    int64
	Alg     string
	Exact   float64
	Sampled Estimate
}

// SignedErr returns sampled − exact (absolute miss-rate units; positive
// means the sampler overestimates).
func (c HarnessCell) SignedErr() float64 { return c.Sampled.MissRate - c.Exact }

// Covered reports whether the exact value fell inside the reported
// confidence interval.
func (c HarnessCell) Covered() bool { return c.Sampled.Covers(c.Exact) }

// HarnessResult aggregates all cells of a run.
type HarnessResult struct {
	Cells []HarnessCell
}

// MeanAbsErr returns the mean absolute miss-rate error over all cells.
func (r *HarnessResult) MeanAbsErr() float64 {
	if len(r.Cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range r.Cells {
		sum += math.Abs(c.SignedErr())
	}
	return sum / float64(len(r.Cells))
}

// MaxAbsErr returns the largest absolute miss-rate error.
func (r *HarnessResult) MaxAbsErr() float64 {
	var max float64
	for _, c := range r.Cells {
		if e := math.Abs(c.SignedErr()); e > max {
			max = e
		}
	}
	return max
}

// MeanSignedErr returns the mean signed error (the estimator's measured
// bias; positive means overestimation).
func (r *HarnessResult) MeanSignedErr() float64 {
	if len(r.Cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range r.Cells {
		sum += c.SignedErr()
	}
	return sum / float64(len(r.Cells))
}

// Coverage returns the fraction of cells whose confidence interval
// contained the exact value.
func (r *HarnessResult) Coverage() float64 {
	if len(r.Cells) == 0 {
		return 0
	}
	n := 0
	for _, c := range r.Cells {
		if c.Covered() {
			n++
		}
	}
	return float64(n) / float64(len(r.Cells))
}

// HarnessAlgorithms lists the seven placement algorithms every harness
// seed runs (the same family the invariant round-trip suite covers).
var HarnessAlgorithms = []string{"default", "ph", "hkc", "gbsc", "pagelocal", "anneal", "split"}

// RunHarness executes the accuracy harness: for each seed it synthesizes a
// random phased program+trace, places it with every algorithm, and
// compares the sampled estimate against the exact RunTrace oracle on each
// resulting layout.
func RunHarness(o HarnessOptions) (*HarnessResult, error) {
	o.setDefaults()
	res := &HarnessResult{}
	for seed := int64(1); seed <= int64(o.Seeds); seed++ {
		if err := harnessSeed(o, seed, res); err != nil {
			return nil, fmt.Errorf("sample harness seed %d: %w", seed, err)
		}
	}
	return res, nil
}

func harnessSeed(o HarnessOptions, seed int64, res *HarnessResult) error {
	rng := rand.New(rand.NewSource(seed))
	prog := randomProgram(rng, o.Procs)
	tr := PhasedTrace(rng, prog, o.Events)
	cfg := o.Cache
	pop := popular.Select(prog, tr, popular.Options{})
	tres, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, Popular: pop})
	if err != nil {
		return err
	}

	type placed struct {
		alg    string
		prog   *program.Program
		layout *program.Layout
		tr     *trace.Trace
	}
	var layouts []placed
	add := func(alg string, l *program.Layout, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		layouts = append(layouts, placed{alg, prog, l, tr})
		return nil
	}
	if err := add("default", program.DefaultLayout(prog), nil); err != nil {
		return err
	}
	phl, err := baseline.PHLayout(prog, wcg.Build(tr))
	if err := add("ph", phl, err); err != nil {
		return err
	}
	hkcl, err := baseline.HKC(prog, wcg.BuildFiltered(tr, pop.Contains), pop, cfg)
	if err := add("hkc", hkcl, err); err != nil {
		return err
	}
	gl, err := core.Place(prog, tres, pop, cfg)
	if err := add("gbsc", gl, err); err != nil {
		return err
	}
	pgl, err := core.PlacePageAware(prog, tres, pop, cfg)
	if err := add("pagelocal", pgl, err); err != nil {
		return err
	}
	al, err := anneal.Place(prog, tres, pop, cfg, anneal.Options{Steps: 300, Seed: seed})
	if err := add("anneal", al, err); err != nil {
		return err
	}
	// Splitting transforms the program and trace; its cell is evaluated on
	// the transformed pair.
	sp, err := split.Split(prog, tr, split.Options{Align: cfg.LineBytes})
	if err != nil {
		return fmt.Errorf("split: %w", err)
	}
	str, err := sp.TransformTrace(prog, tr)
	if err != nil {
		return fmt.Errorf("split: %w", err)
	}
	spop := popular.Select(sp.Prog, str, popular.Options{})
	sres, err := trg.Build(sp.Prog, str, trg.Options{CacheBytes: cfg.SizeBytes, Popular: spop})
	if err != nil {
		return fmt.Errorf("split: %w", err)
	}
	sl, err := core.Place(sp.Prog, sres, spop, cfg)
	if err != nil {
		return fmt.Errorf("split: %w", err)
	}
	layouts = append(layouts, placed{"split", sp.Prog, sl, str})

	sim := cache.MustNewSim(cfg)
	bs := cache.MustNewBatchSim(cfg)
	evals := map[*trace.Trace]*Evaluator{}
	for _, pl := range layouts {
		ev := evals[pl.tr]
		if ev == nil {
			plan, err := NewPlan(pl.prog, pl.tr, cfg.LineBytes, o.Sample)
			if err != nil {
				return err
			}
			ev = NewEvaluator(cache.CompileTrace(pl.prog, pl.tr), plan)
			evals[pl.tr] = ev
		}
		ests, err := ev.MissRateBatch(bs, []*program.Layout{pl.layout})
		if err != nil {
			return fmt.Errorf("%s: %w", pl.alg, err)
		}
		res.Cells = append(res.Cells, HarnessCell{
			Seed:    seed,
			Alg:     pl.alg,
			Exact:   sim.RunTrace(pl.layout, pl.tr).MissRate(),
			Sampled: ests[0],
		})
	}
	return nil
}

// randomProgram synthesizes n procedures with sizes in [32, 512).
func randomProgram(rng *rand.Rand, n int) *program.Program {
	procs := make([]program.Procedure, n)
	for i := range procs {
		procs[i] = program.Procedure{
			Name: fmt.Sprintf("h%03d", i),
			Size: 32 + rng.Intn(480),
		}
	}
	return program.MustNew(procs)
}

// PhasedTrace generates a random trace with explicit phase structure: the
// run is cut into phases, each dwelling on its own random subset of
// procedures with random extents and repeat counts. This is the workload
// shape the phase-aware selector is built for, and what the harness (and
// the package tests) cluster against.
func PhasedTrace(rng *rand.Rand, prog *program.Program, events int) *trace.Trace {
	tr := &trace.Trace{}
	if events <= 0 {
		return tr
	}
	phases := 4 + rng.Intn(4)
	per := events / phases
	if per < 1 {
		phases, per = 1, events
	}
	n := prog.NumProcs()
	for ph := 0; ph < phases; ph++ {
		// Each phase works over a random quarter of the program.
		set := make([]program.ProcID, 0, n/4+1)
		for len(set) < n/4+1 {
			set = append(set, program.ProcID(rng.Intn(n)))
		}
		count := per
		if ph == phases-1 {
			count = events - per*(phases-1)
		}
		for i := 0; i < count; i++ {
			p := set[rng.Intn(len(set))]
			ext := rng.Intn(300)
			if s := prog.Size(p); ext > s {
				ext = s
			}
			tr.Append(trace.Event{
				Proc:   p,
				Extent: int32(ext),
				Repeat: int32(rng.Intn(6)),
			})
		}
	}
	return tr
}
