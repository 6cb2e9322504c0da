// Differential tests for the compiled replay engine: randomized programs
// and traces, placed by every placement algorithm in the repo, replayed
// under direct-mapped, set-associative, non-power-of-two, and TLB
// geometries — the engine must agree byte-for-byte with the retained
// general loops. The file lives in the external test package because the
// placement packages (baseline, core, anneal) import cache.
package cache_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/anneal"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
	"repro/internal/wcg"
)

// diffConfigs covers the fast-path matrix: power-of-two geometries take
// the shift/mask indexing, the 3072-byte configs exercise the div/mod
// fallback (96 sets direct-mapped and 48 sets 2-way, the modulo set index
// of both walks; 24-byte lines with power-of-two sets).
var diffConfigs = []cache.Config{
	{SizeBytes: 8192, LineBytes: 32, Assoc: 1},
	{SizeBytes: 8192, LineBytes: 32, Assoc: 2},
	{SizeBytes: 8192, LineBytes: 32, Assoc: 4},
	{SizeBytes: 3072, LineBytes: 32, Assoc: 1},
	{SizeBytes: 3072, LineBytes: 32, Assoc: 2},
	{SizeBytes: 3072, LineBytes: 24, Assoc: 2},
}

// randProgram builds a program whose procedure sizes straddle every
// collapse boundary: mostly cache-resident procedures with odd sizes (so
// placements produce unaligned starts), plus a few spanning more lines
// than the smallest simulated cache holds (forcing the repeat fallback).
func randProgram(rng *rand.Rand, nProcs int) *program.Program {
	procs := make([]program.Procedure, nProcs)
	for i := range procs {
		size := 9 + rng.Intn(600)
		if i%17 == 0 {
			size = 4000 + rng.Intn(8000) // exceeds the 3072B configs
		}
		procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: size}
	}
	return program.MustNew(procs)
}

// randTrace emits events exercising the zero-means-default encodings and
// out-of-range extents (clamped by ExtentBytes) alongside ordinary ones.
func randTrace(rng *rand.Rand, prog *program.Program, nEvents int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < nEvents; i++ {
		p := program.ProcID(rng.Intn(prog.NumProcs()))
		e := trace.Event{Proc: p}
		switch rng.Intn(4) {
		case 0: // full extent via the zero default
		case 1:
			e.Extent = int32(1 + rng.Intn(prog.Size(p)))
		case 2:
			e.Extent = int32(prog.Size(p) + rng.Intn(64)) // clamped
		case 3:
			e.Extent = int32(1 + rng.Intn(48)) // short prefix
		}
		if rng.Intn(3) > 0 {
			e.Repeat = int32(1 + rng.Intn(16))
		}
		tr.Append(e)
	}
	return tr
}

// diffLayouts places prog with every algorithm in the repo: link order, a
// random packed permutation with gaps, PH, HKC, GBSC, page-aware GBSC,
// and simulated annealing.
func diffLayouts(t *testing.T, rng *rand.Rand, prog *program.Program, train *trace.Trace) map[string]*program.Layout {
	t.Helper()
	cfg := cache.PaperConfig
	pop := popular.Select(prog, train, popular.Options{})
	res, err := trg.Build(prog, train, trg.Options{CacheBytes: cfg.SizeBytes, Popular: pop})
	if err != nil {
		t.Fatal(err)
	}
	layouts := map[string]*program.Layout{
		"default": program.DefaultLayout(prog),
	}
	shuffled := program.NewLayout(prog)
	addr := 0
	for _, p := range rng.Perm(prog.NumProcs()) {
		addr += rng.Intn(8) // gaps keep starts unaligned
		shuffled.SetAddr(program.ProcID(p), addr)
		addr += prog.Size(program.ProcID(p))
	}
	layouts["shuffled"] = shuffled
	if layouts["ph"], err = baseline.PHLayout(prog, wcg.Build(train)); err != nil {
		t.Fatal(err)
	}
	if layouts["hkc"], err = baseline.HKC(prog, wcg.BuildFiltered(train, pop.Contains), pop, cfg); err != nil {
		t.Fatal(err)
	}
	if layouts["gbsc"], err = core.Place(prog, res, pop, cfg); err != nil {
		t.Fatal(err)
	}
	if layouts["pageaware"], err = core.PlacePageAware(prog, res, pop, cfg); err != nil {
		t.Fatal(err)
	}
	if layouts["anneal"], err = anneal.Place(prog, res, pop, cfg, anneal.Options{Steps: 300}); err != nil {
		t.Fatal(err)
	}
	return layouts
}

// TestReplayEngineMatchesOracles is the main differential suite: for every
// seed × placement algorithm × geometry, the compiled engine's Stats,
// ClassifiedStats (including the per-procedure attribution), and TLB stats
// must equal the general loops' exactly, and a classified run's Stats must
// equal the plain run's. The engine simulator is reused
// across layouts within a config, so the epoch-stamped Reset path is part
// of what is being verified.
func TestReplayEngineMatchesOracles(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			prog := randProgram(rng, 60)
			train := randTrace(rng, prog, 300)
			test := randTrace(rng, prog, 300)
			layouts := diffLayouts(t, rng, prog, train)
			ct := cache.CompileTrace(prog, test)

			for _, cfg := range diffConfigs {
				engine := cache.MustNewSim(cfg)
				for name, layout := range layouts {
					got := engine.RunCompiled(ct, layout)
					want := cache.NewRefSim(cfg).RunTraceOracle(layout, test)
					if got != want {
						t.Errorf("cfg %+v layout %s: engine stats %+v != oracle %+v", cfg, name, got, want)
					}
					if rs := engine.Replay(); rs.Events != int64(ct.Len()) {
						t.Errorf("cfg %+v layout %s: replay events %d, want %d", cfg, name, rs.Events, ct.Len())
					}

					gotCS, _, err := cache.RunCompiledClassified(cfg, ct, layout)
					if err != nil {
						t.Fatal(err)
					}
					wantCS, err := cache.RunTraceClassifiedOracle(cfg, layout, test)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotCS, wantCS) {
						t.Errorf("cfg %+v layout %s: engine classified %+v != oracle %+v", cfg, name, gotCS, wantCS)
					}
					// The plain and classified walks of one layout agree on
					// Refs, Misses and the first-touch Cold count.
					if gotCS.Stats != got {
						t.Errorf("cfg %+v layout %s: classified stats %+v != RunCompiled %+v", cfg, name, gotCS.Stats, got)
					}
				}
			}

			for _, tlbCfg := range []cache.TLBConfig{
				{Entries: 8, PageBytes: 1024},
				{Entries: 4, PageBytes: 512},
			} {
				for name, layout := range layouts {
					got, _, err := cache.RunCompiledTLB(tlbCfg, ct, layout)
					if err != nil {
						t.Fatal(err)
					}
					want, err := cache.RunTraceTLBOracle(tlbCfg, layout, test)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("tlb %+v layout %s: engine stats %+v != oracle %+v", tlbCfg, name, got, want)
					}
				}
			}
		})
	}
}
