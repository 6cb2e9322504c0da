// Package randcell builds the randomized cells the cross-module tests
// draw on: a random program, a phased trace over it, and the program
// placed by each of the seven placement algorithms. A cell is one such
// (program, trace, algorithm) triple; the sampled-accuracy harness
// (internal/sample) and the invariant round-trip suite both score the
// same cells, so a seed names the same data in every package.
//
// Like net/http/httptest it is test support: only _test.go files import
// it, and `make lint` fails if a non-test package does. The generators'
// RNG call order is part of their contract — the harness thresholds were
// calibrated on exactly the programs and traces a seed produces here.
package randcell

import (
	"fmt"
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

// Program synthesizes n procedures with sizes in [32, 512).
func Program(rng *rand.Rand, n int) *program.Program {
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
// shape the sampler's phase-aware selector is built for.
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

// Algorithms names the seven placement algorithms in the order Layouts
// returns their cells.
func Algorithms() []string {
	return []string{"default", "ph", "hkc", "gbsc", "pagelocal", "anneal", "split"}
}

// Placed is one algorithm's layout together with the program and trace it
// is evaluated on, and the popular set and TRG built from them under the
// placement geometry. Splitting transforms the program and trace, so its
// cell carries the split pair and that pair's own popular set and TRG.
type Placed struct {
	Alg     string
	Prog    *program.Program
	Trace   *trace.Trace
	Layout  *program.Layout
	Popular *popular.Set
	TRG     *trg.Result
}

// Layouts places prog, profiled by tr, with every algorithm of
// Algorithms under cfg; seed drives simulated annealing.
func Layouts(prog *program.Program, tr *trace.Trace, cfg cache.Config, seed int64) ([]Placed, error) {
	pop := popular.Select(prog, tr, popular.Options{})
	tres, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, Popular: pop})
	if err != nil {
		return nil, err
	}

	var layouts []Placed
	add := func(alg string, l *program.Layout, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		layouts = append(layouts, Placed{alg, prog, tr, l, pop, tres})
		return nil
	}
	if err := add("default", program.DefaultLayout(prog), nil); err != nil {
		return nil, err
	}
	phl, err := baseline.PHLayout(prog, wcg.Build(tr))
	if err := add("ph", phl, err); err != nil {
		return nil, err
	}
	hkcl, err := baseline.HKC(prog, wcg.BuildFiltered(tr, pop.Contains), pop, cfg)
	if err := add("hkc", hkcl, err); err != nil {
		return nil, err
	}
	gl, err := core.Place(prog, tres, pop, cfg)
	if err := add("gbsc", gl, err); err != nil {
		return nil, err
	}
	pgl, err := core.PlacePageAware(prog, tres, pop, cfg)
	if err := add("pagelocal", pgl, err); err != nil {
		return nil, err
	}
	al, err := anneal.Place(prog, tres, pop, cfg, anneal.Options{Steps: 300, Seed: seed})
	if err := add("anneal", al, err); err != nil {
		return nil, err
	}
	sp, err := split.Split(prog, tr, split.Options{Align: cfg.LineBytes})
	if err != nil {
		return nil, fmt.Errorf("split: %w", err)
	}
	str, err := sp.TransformTrace(prog, tr)
	if err != nil {
		return nil, fmt.Errorf("split: %w", err)
	}
	spop := popular.Select(sp.Prog, str, popular.Options{})
	sres, err := trg.Build(sp.Prog, str, trg.Options{CacheBytes: cfg.SizeBytes, Popular: spop})
	if err != nil {
		return nil, fmt.Errorf("split: %w", err)
	}
	sl, err := core.Place(sp.Prog, sres, spop, cfg)
	if err != nil {
		return nil, fmt.Errorf("split: %w", err)
	}
	return append(layouts, Placed{"split", sp.Prog, str, sl, spop, sres}), nil
}
