package invariant_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/optimal"
	"repro/internal/randcell"
	"repro/internal/trg"
)

func mustClean(t *testing.T, alg string, vs []invariant.Violation) {
	t.Helper()
	if len(vs) != 0 {
		t.Errorf("%s: layout violates invariants: %v", alg, vs)
	}
}

// TestAllAlgorithmsSatisfyInvariants round-trips seeded random programs
// through every placement algorithm and asserts the invariant checker
// accepts each output under the algorithm's layout class.
func TestAllAlgorithmsSatisfyInvariants(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			prog := randcell.Program(rng, 12)
			tr := randcell.PhasedTrace(rng, prog, 4000)
			cfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}
			cells, err := randcell.Layouts(prog, tr, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			pop := cells[0].Popular

			// The cells share one TRG; its build accounting must hold.
			res, bs, err := trg.BuildWithStats(prog, tr, trg.Options{
				CacheBytes: cfg.SizeBytes, Popular: pop,
			})
			if err != nil {
				t.Fatal(err)
			}
			mustClean(t, "trg", invariant.CheckTRG(prog, res, bs, pop))

			for _, c := range cells {
				opts := invariant.LayoutOptions{Cache: cfg, Popular: c.Popular}
				switch c.Alg {
				case "default", "ph":
					// Link order and Pettis-Hansen produce packed
					// permutations.
					opts = invariant.LayoutOptions{RequirePacked: true}
				case "hkc":
					// HKC only aligns the compound procedures it colors,
					// so it gets the universal checks.
				case "gbsc", "split":
					// The GBSC family goes through place.Emit: every
					// popular procedure line-aligned on its assigned
					// cache line, chunked by its own TRG. Splitting
					// transforms the program first, so its cell carries
					// the split program's popular set and TRG.
					opts.Chunker = c.TRG.Chunker
					opts.RequireAlignedPopular = true
					if c.Alg == "gbsc" {
						items, err := core.Assign(c.Prog, c.TRG, c.Popular, cfg)
						if err != nil {
							t.Fatal(err)
						}
						opts.Placed = items
					}
				case "pagelocal", "anneal":
					opts.RequireAlignedPopular = true
				default:
					t.Fatalf("no invariant class for algorithm %q", c.Alg)
				}
				mustClean(t, c.Alg, invariant.CheckLayout(c.Prog, c.Layout, opts))
			}

			// Set-associative variant (Section 6): period is the set count.
			cfg2 := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 2}
			res2, db, err := trg.BuildPairs(prog, tr, trg.Options{
				CacheBytes: cfg2.SizeBytes, Popular: pop,
			})
			if err != nil {
				t.Fatal(err)
			}
			l2, err := core.PlaceAssoc(prog, res2, db, pop, cfg2)
			if err != nil {
				t.Fatal(err)
			}
			mustClean(t, "gbsc2", invariant.CheckLayout(prog, l2, invariant.LayoutOptions{
				Cache: cfg2, Popular: pop, Period: cfg2.NumSets(),
				RequireAlignedPopular: true,
			}))
		})
	}

	// Exhaustive search is bounded to tiny programs; its layouts come from
	// place.Linearize with every procedure popular.
	rng := rand.New(rand.NewSource(42))
	tiny := cache.Config{SizeBytes: 96, LineBytes: 32, Assoc: 1}
	prog := randcell.Program(rng, 4)
	tr := randcell.PhasedTrace(rng, prog, 400)
	opt, err := optimal.Search(prog, tr, tiny)
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, "optimal", invariant.CheckLayout(prog, opt.Layout, invariant.LayoutOptions{
		Cache: tiny, RequireAlignedPopular: true,
	}))
}
