package optimal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/trace"
)

// SearchReference is the plain serial search: the same odometer and
// tie-breaking, every candidate replayed one at a time with
// cache.RunTrace — a fresh simulator and a fresh trace memoization per
// candidate, no budget. Search must return a byte-identical winner; the
// reference exists for that differential and as the baseline Search's
// amortizations (one compilation, one reused simulator, budgeted walks)
// are measured against.
func SearchReference(prog *program.Program, tr *trace.Trace, cfg cache.Config) (*Result, error) {
	if err := validate(prog, tr, cfg); err != nil {
		return nil, err
	}
	res := &Result{Misses: math.MaxInt64}
	err := candidates(prog, cfg, func(layout *program.Layout) (bool, error) {
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

// optimalSearchFixture builds the exhaustive-search workload for the search
// benchmarks: one of the optimality experiment's loop-structured tiny
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

// BenchmarkOptimalSearchSerial times the serial reference search: one
// fresh RunTrace per candidate.
func BenchmarkOptimalSearchSerial(b *testing.B) {
	prog, tr := optimalSearchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchReference(prog, tr, tiny); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalSearch times the production search: one budgeted walk
// of the shared compilation per candidate.
func BenchmarkOptimalSearch(b *testing.B) {
	prog, tr := optimalSearchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(prog, tr, tiny); err != nil {
			b.Fatal(err)
		}
	}
}
