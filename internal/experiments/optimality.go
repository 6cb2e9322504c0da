package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/optimal"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
)

// OptimalityRow compares GBSC to the exhaustive optimum on one randomly
// generated tiny workload.
type OptimalityRow struct {
	Seed          int64
	Procs         int
	OptimalMisses int64
	GBSCMisses    int64
}

// OptimalityResult aggregates the comparison.
type OptimalityResult struct {
	Rows []OptimalityRow
	// ExactCount is how many workloads GBSC solved optimally.
	ExactCount int
	// MeanRatio is the average GBSC/optimal miss ratio.
	MeanRatio float64
}

// Optimality quantifies Section 4.2's "this greedy heuristic works quite
// well in practice": on programs small enough for exhaustive search
// (≤ optimal.MaxProcs procedures, 4-line cache), how close does GBSC land
// to the true optimum?
func Optimality(opts Options) (*OptimalityResult, error) {
	opts.setDefaults()
	tiny := cache.Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}
	res := &OptimalityResult{}
	sh := opts.Telemetry.Shard()
	const workloads = 20
	var ratioSum float64
	for w := 0; w < workloads; w++ {
		seed := opts.Seed + int64(w)*104729
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 3
		procs := make([]program.Procedure, n)
		for i := range procs {
			procs[i] = program.Procedure{
				Name: fmt.Sprintf("p%d", i),
				Size: 32 * (rng.Intn(2) + 1),
			}
		}
		prog, err := program.New(procs)
		if err != nil {
			return nil, err
		}
		// Loop-structured workloads: bursts of round-robin sweeps (the
		// cyclic call pattern of a loop body) interleaved with random
		// walks. Instruction traces are loopy, not IID-random. Every
		// fourth workload is a pure loop nest, the most regular call
		// pattern a loop body produces.
		pureLoop := w%4 == 0
		tr := &trace.Trace{}
		for tr.Len() < 500 {
			if pureLoop || rng.Intn(2) == 0 {
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

		opt, err := optimal.Search(prog, tr, tiny)
		if err != nil {
			return nil, err
		}
		sh.Add("optimal/evaluated", opt.Evaluated)
		sh.Add("optimal/pruned", opt.Pruned)
		sh.Add("optimal/abandoned", opt.Abandoned)
		addBatch(sh, opt.Batch)
		// Both layouts come from place.Linearize with every procedure
		// popular, so full alignment applies.
		if err := checkAligned(fmt.Sprintf("optimality/seed%d/optimal", seed), prog, opt.Layout, nil, tiny); err != nil {
			return nil, err
		}
		trgRes, _, err := buildTRG(fmt.Sprintf("optimality/seed%d", seed), prog, tr, trg.Options{CacheBytes: tiny.SizeBytes, ChunkSize: 32})
		if err != nil {
			return nil, err
		}
		gl, err := core.Place(prog, trgRes, nil, tiny)
		if err != nil {
			return nil, err
		}
		if err := checkAligned(fmt.Sprintf("optimality/seed%d/gbsc", seed), prog, gl, nil, tiny); err != nil {
			return nil, err
		}
		st, err := cache.RunTrace(tiny, gl, tr)
		if err != nil {
			return nil, err
		}

		row := OptimalityRow{Seed: seed, Procs: n, OptimalMisses: opt.Misses, GBSCMisses: st.Misses}
		res.Rows = append(res.Rows, row)
		if st.Misses <= opt.Misses {
			res.ExactCount++
		}
		if opt.Misses > 0 {
			ratioSum += float64(st.Misses) / float64(opt.Misses)
		} else {
			ratioSum += 1
		}
	}
	res.MeanRatio = ratioSum / float64(len(res.Rows))
	return res, nil
}

// Render prints the summary and rows.
func (r *OptimalityResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "== GBSC vs exhaustive optimum (tiny workloads, 4-line cache) ==\n")
	fmt.Fprintf(w, "optimal on %d/%d workloads; mean miss ratio %.3f\n",
		r.ExactCount, len(r.Rows), r.MeanRatio)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seed\tprocs\toptimal\tGBSC")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\n", row.Seed, row.Procs, row.OptimalMisses, row.GBSCMisses)
	}
	return tw.Flush()
}
