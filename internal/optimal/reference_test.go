package optimal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/trace"
)

// candidates drives the odometer over offsets[1..n-1] (the first
// procedure is pinned to line 0 — rotations of a placement are
// equivalent), offsets[1] turning fastest, yielding each candidate's
// offsets and linearized layout in search order until yield returns false
// or the space is exhausted. yield must not keep offsets.
func candidates(prog *program.Program, cfg cache.Config, yield func(offsets []int, layout *program.Layout) (bool, error)) error {
	n := prog.NumProcs()
	lines := cfg.NumLines()
	offsets := make([]int, n) // offsets[0] stays 0
	for {
		layout, err := linearize(prog, cfg, offsets)
		if err != nil {
			return err
		}
		if more, err := yield(offsets, layout); err != nil || !more {
			return err
		}
		i := 1
		for ; i < n; i++ {
			offsets[i]++
			if offsets[i] < lines {
				break
			}
			offsets[i] = 0
		}
		if i == n {
			return nil
		}
	}
}

// SearchReference is the plain serial search: every candidate of the
// odometer, linearized and replayed one at a time with cache.RunTrace — a
// fresh simulator and a fresh trace memoization per candidate, no budget,
// no pruning — keeping the first one with minimal misses. Search must
// return a byte-identical winner; the reference exists for that
// differential and as the baseline Search's branch and bound is measured
// against.
func SearchReference(prog *program.Program, tr *trace.Trace, cfg cache.Config) (*Result, error) {
	if err := validate(prog, tr, cfg); err != nil {
		return nil, err
	}
	res := &Result{Misses: math.MaxInt64}
	err := candidates(prog, cfg, func(_ []int, layout *program.Layout) (bool, error) {
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

// searchFixture builds an exhaustive-search workload the way the
// optimality experiment and the pipeline benchmark's search workload do:
// n procedures of one or two 32-byte lines and a ~500-event trace of
// round-robin sweeps (a loop body's calls) interleaved with random walks.
func searchFixture(n int) (*program.Program, *trace.Trace) {
	rng := rand.New(rand.NewSource(3))
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

// BenchmarkOptimalSearchSerial times the serial reference search on five
// procedures in the 4-line tiny cache: one fresh RunTrace per candidate,
// 4^4 of them.
func BenchmarkOptimalSearchSerial(b *testing.B) {
	prog, tr := searchFixture(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchReference(prog, tr, tiny); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalSearch times the production search in the pipeline
// benchmark's search regime: six procedures on an 8-line cache, 8^5
// candidates.
func BenchmarkOptimalSearch(b *testing.B) {
	prog, tr := searchFixture(MaxProcs)
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(prog, tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
