package optimal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/trace"
)

// SearchReference is the frozen serial baseline search: the same static
// prescreen, but every surviving candidate replayed one at a time with
// cache.RunTrace — a fresh simulator and a fresh trace memoization per
// candidate, exactly the shape Search had before batching. Search must
// return a byte-identical winner; the reference exists for that
// differential and as the baseline the batched speedup is measured
// against, so it deliberately keeps the per-candidate costs the batch
// engine amortizes away (one compilation, one state buffer, one shared
// walk).
func SearchReference(prog *program.Program, tr *trace.Trace, cfg cache.Config) (*Result, error) {
	model, err := validate(prog, tr, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Misses: math.MaxInt64}
	err = candidates(prog, cfg, func(layout *program.Layout) (bool, error) {
		if res.Layout != nil && model.Analyze(layout).LowerMisses > res.Misses {
			res.Pruned++
			return true, nil
		}
		st, err := cache.RunTrace(cfg, layout, tr)
		if err != nil {
			return false, err
		}
		res.Evaluated++
		if st.Misses < res.Misses {
			res.Misses = st.Misses
			res.Layout = layout
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// optimalSearchFixture builds the exhaustive-search workload for the batched
// search benchmarks: one of the optimality experiment's loop-structured tiny
// programs, searched on the 4-line tiny cache.
func optimalSearchFixture() (*program.Program, *trace.Trace) {
	rng := rand.New(rand.NewSource(3))
	const n = 5
	procs := make([]program.Procedure, n)
	for i := range procs {
		procs[i] = program.Procedure{Name: "p" + string(rune('a'+i)), Size: 32 * (rng.Intn(2) + 1)}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	for tr.Len() < 500 {
		if rng.Intn(2) == 0 {
			sweeps := rng.Intn(8) + 2
			for s := 0; s < sweeps; s++ {
				for p := 0; p < n; p++ {
					tr.Append(trace.Event{Proc: program.ProcID(p)})
				}
			}
		} else {
			walk := rng.Intn(20) + 5
			for i := 0; i < walk; i++ {
				tr.Append(trace.Event{Proc: program.ProcID(rng.Intn(n))})
			}
		}
	}
	return prog, tr
}

// BenchmarkOptimalSearchSerial times the screened serial reference search —
// one replay per surviving candidate, the engine Search had before batching.
func BenchmarkOptimalSearchSerial(b *testing.B) {
	prog, tr := optimalSearchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchReference(prog, tr, tiny); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalSearchBatched times the production search: 16-lane batched
// replay with incumbent-budget early abandonment on top of the static
// screen (acceptance: ≥2× the serial search with a byte-identical winner).
func BenchmarkOptimalSearchBatched(b *testing.B) {
	prog, tr := optimalSearchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(prog, tr, tiny); err != nil {
			b.Fatal(err)
		}
	}
}
