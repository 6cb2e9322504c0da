package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/bb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
)

// BlockReorderResult compares the placement pipeline with and without
// intra-procedure basic-block reordering (Pettis & Hansen's bottom-up
// positioning). Reordering shortens the hot prefix of each procedure,
// which shrinks activation extents; the chunk-level TRG then packs the
// shortened procedures more effectively — the two granularities of
// code placement composing, as the paper's Section 1 anticipates.
type BlockReorderResult struct {
	Procs       int
	Activations int
	// Miss rates on the test workload.
	DefaultOrderDefaultLayout float64
	DefaultOrderGBSC          float64
	ReorderedGBSC             float64
	// Mean activation extents (bytes) under each block order.
	DefaultExtent, ReorderedExtent float64
}

// BlockReorder builds a synthetic CFG-level benchmark, derives traces for
// the source block order and the profiled reordering from the same walks,
// and runs the GBSC pipeline on each.
func BlockReorder(opts Options) (*BlockReorderResult, error) {
	opts.setDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	// --- Synthesize procedures with CFGs -----------------------------
	const nProcs = 48
	cfgs := make([]*bb.CFG, nProcs)
	orders := make([][]int, nProcs)
	procs := make([]program.Procedure, nProcs)
	for i := range cfgs {
		c, err := bb.SynthCFG(rng, 2+rng.Intn(7), func() int { return 16 + rng.Intn(112) })
		if err != nil {
			return nil, err
		}
		cfgs[i] = c
		// Profile the branches, then reorder from the observed counts —
		// the realistic flow (reordering uses profiles, not oracle
		// biases).
		prof, err := c.ProfileFromWalks(rng, 200, 0)
		if err != nil {
			return nil, err
		}
		if orders[i], err = bb.Reorder(prof); err != nil {
			return nil, err
		}
		procs[i] = program.Procedure{Name: fmt.Sprintf("f%02d", i), Size: c.Size()}
	}
	prog, err := program.New(procs)
	if err != nil {
		return nil, err
	}

	// --- Derive parallel traces from shared walks ---------------------
	genTraces := func(seed int64, activations int) (defTr, reordTr *trace.Trace, defExtSum, reordExtSum int64, err error) {
		wrng := rand.New(rand.NewSource(seed))
		defTr, reordTr = &trace.Trace{}, &trace.Trace{}
		// Phase-local working sets: each phase rotates over a handful of
		// procedures (a few times the cache size in total), the regime
		// where conflict misses dominate and placement matters.
		const phases = 8
		for a := 0; a < activations; a++ {
			phase := a * phases / activations
			p := (phase*6 + int(wrng.ExpFloat64()*2.0)) % nProcs
			if p < 0 {
				p = 0
			}
			exec, werr := cfgs[p].Walk(wrng, 0)
			if werr != nil {
				return nil, nil, 0, 0, werr
			}
			dExt, werr := cfgs[p].ExtentOf(bb.DefaultOrder(len(cfgs[p].Blocks)), exec)
			if werr != nil {
				return nil, nil, 0, 0, werr
			}
			rExt, werr := cfgs[p].ExtentOf(orders[p], exec)
			if werr != nil {
				return nil, nil, 0, 0, werr
			}
			// Intra-procedure looping: the executed extent re-runs a few
			// times per activation, as loop bodies do; repeats add fetch
			// volume (hits) without new footprint.
			rep := int32(2 + wrng.Intn(6))
			defTr.Append(trace.Event{Proc: program.ProcID(p), Extent: int32(dExt), Repeat: rep})
			reordTr.Append(trace.Event{Proc: program.ProcID(p), Extent: int32(rExt), Repeat: rep})
			defExtSum += int64(dExt)
			reordExtSum += int64(rExt)
		}
		return defTr, reordTr, defExtSum, reordExtSum, nil
	}

	const activations = 60_000
	defTrain, reordTrain, _, _, err := genTraces(opts.Seed+1, activations)
	if err != nil {
		return nil, err
	}
	defTest, reordTest, defExtSum, reordExtSum, err := genTraces(opts.Seed+2, activations)
	if err != nil {
		return nil, err
	}

	res := &BlockReorderResult{
		Procs:           nProcs,
		Activations:     activations,
		DefaultExtent:   float64(defExtSum) / activations,
		ReorderedExtent: float64(reordExtSum) / activations,
	}

	// A small cache so the interpreter-sized workload contends.
	cfg := cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 1}

	def := program.DefaultLayout(prog)
	if err := checkPacked("blockreorder/default", prog, def); err != nil {
		return nil, err
	}
	if res.DefaultOrderDefaultLayout, err = cache.MissRate(cfg, def, defTest); err != nil {
		return nil, err
	}
	run := func(name string, train, test *trace.Trace) (float64, error) {
		pop := popular.Select(prog, train, popular.Options{})
		r, _, err := buildTRG("blockreorder/"+name, prog, train, trg.Options{CacheBytes: cfg.SizeBytes, Popular: pop})
		if err != nil {
			return 0, err
		}
		l, err := core.Place(prog, r, pop, cfg)
		if err != nil {
			return 0, err
		}
		if err := checkAligned("blockreorder/"+name, prog, l, pop, cfg); err != nil {
			return 0, err
		}
		return cache.MissRate(cfg, l, test)
	}
	if res.DefaultOrderGBSC, err = run("source-order", defTrain, defTest); err != nil {
		return nil, err
	}
	if res.ReorderedGBSC, err = run("reordered", reordTrain, reordTest); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the comparison.
func (r *BlockReorderResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "== Basic-block reordering + procedure placement (%d CFG procedures) ==\n", r.Procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "configuration\tmiss rate\tmean activation extent")
	fmt.Fprintf(tw, "source block order, link-order layout\t%s\t%.0fB\n",
		pct(r.DefaultOrderDefaultLayout), r.DefaultExtent)
	fmt.Fprintf(tw, "source block order, GBSC\t%s\t%.0fB\n",
		pct(r.DefaultOrderGBSC), r.DefaultExtent)
	fmt.Fprintf(tw, "PH block reordering, GBSC\t%s\t%.0fB\n",
		pct(r.ReorderedGBSC), r.ReorderedExtent)
	return tw.Flush()
}
