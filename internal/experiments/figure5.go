package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"text/tabwriter"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/perturb"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trg"
)

// AlgorithmName identifies a layout algorithm: one of the paper's three,
// or the link-order default they are all compared against.
type AlgorithmName string

// The three algorithms of the paper's comparison, and the default layout.
const (
	AlgPH      AlgorithmName = "PH"
	AlgHKC     AlgorithmName = "HKC"
	AlgGBSC    AlgorithmName = "GBSC"
	AlgDefault AlgorithmName = "Default"
)

// Figure5Bench holds one benchmark's panel of Figure 5: for each algorithm,
// the sorted miss rates of Runs perturbed placements (the CDF points) plus
// the miss rate without perturbation (the MR inset table).
type Figure5Bench struct {
	Name string
	// Sorted[alg] lists the Runs miss rates in ascending order; plotting
	// (Sorted[alg][i], (i+1)/Runs) reproduces the paper's panels.
	Sorted map[AlgorithmName][]float64
	// Unperturbed[alg] is the miss rate of the placement computed from the
	// unmodified profile.
	Unperturbed map[AlgorithmName]float64
}

// Figure5Result aggregates all panels.
type Figure5Result struct {
	Runs    int
	Scale   float64
	Benches []Figure5Bench
}

// figure5Algs is the fixed algorithm order of the paper's panels.
var figure5Algs = []AlgorithmName{AlgPH, AlgHKC, AlgGBSC}

// Figure5 regenerates the paper's Figure 5: the distribution of
// instruction-cache miss rates under randomized profiles for PH, HKC and
// GBSC on each benchmark.
//
// The grid runs in two phases sharded across Options.Parallel workers.
// Phase one places every benchmark × algorithm × run cell; every cell
// derives its RNG from (Seed, run) alone, and the unperturbed cells take
// the store's layouts. Phase two scores each (benchmark, algorithm)
// panel's layouts by exact compiled replay of the testing trace. Results
// land in index-addressed slots, so the result — and the rendered output —
// is byte-identical to the serial run regardless of scheduling.
func Figure5(opts Options) (*Figure5Result, error) {
	opts.setDefaults()
	if opts.Runs < 0 {
		return nil, fmt.Errorf("experiments: negative perturbed run count %d", opts.Runs)
	}
	par := opts.parallelism()
	benches, err := forSuite(&opts, cache.PaperConfig, keep)
	if err != nil {
		return nil, err
	}

	// Cell layout: per benchmark, per algorithm (one panel), run -1
	// (unperturbed) followed by runs 0..Runs-1; panel j's layouts are
	// layouts[j*perAlg:(j+1)*perAlg].
	perAlg := opts.Runs + 1
	perBench := len(figure5Algs) * perAlg
	layouts := make([]*program.Layout, len(benches)*perBench)
	err = runParallel(par, len(layouts),
		func() *telemetry.Shard { return opts.Telemetry.Shard() },
		func(sh *telemetry.Shard, i int) error {
			bi, rest := i/perBench, i%perBench
			ai, run := rest/perAlg, rest%perAlg-1
			b, alg := benches[bi], figure5Algs[ai]
			defer sh.Time("figure5/cell_wall")()
			if run < 0 {
				ls, err := opts.Store.layouts(sh, b, cache.PaperConfig, alg)
				if err != nil {
					return err
				}
				layouts[i] = ls[0]
				return nil
			}
			rng := rand.New(rand.NewSource(opts.Seed + int64(run)*7919))
			layout, err := buildLayout(alg, b, cache.PaperConfig, rng, sh)
			if err != nil {
				return fmt.Errorf("run %d: %w", run, err)
			}
			layouts[i] = layout
			return nil
		})
	if err != nil {
		return nil, err
	}

	// rates[j] holds panel j's miss rates, in layout order.
	rates := make([][]float64, len(benches)*len(figure5Algs))
	err = runParallel(par, len(rates),
		func() *telemetry.Shard { return opts.Telemetry.Shard() },
		func(sh *telemetry.Shard, j int) error {
			bi, ai := j/len(figure5Algs), j%len(figure5Algs)
			stop := sh.Time("figure5/score_wall")
			defer stop()
			mr, err := scoreLayouts(cache.PaperConfig, benches[bi], layouts[j*perAlg:(j+1)*perAlg], sh)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", benches[bi].pair.Bench.Name, figure5Algs[ai], err)
			}
			rates[j] = mr
			return nil
		})
	if err != nil {
		return nil, err
	}

	out := &Figure5Result{Runs: opts.Runs, Scale: opts.Scale}
	for bi, b := range benches {
		fb := Figure5Bench{
			Name:        b.pair.Bench.Name,
			Sorted:      map[AlgorithmName][]float64{},
			Unperturbed: map[AlgorithmName]float64{},
		}
		for ai, alg := range figure5Algs {
			panel := rates[bi*len(figure5Algs)+ai]
			fb.Unperturbed[alg] = panel[0]
			sorted := panel[1:]
			sort.Float64s(sorted)
			fb.Sorted[alg] = sorted
		}
		out.Benches = append(out.Benches, fb)
	}
	return out, nil
}

// buildLayout computes alg's layout of b for cfg from optionally perturbed
// profile data (rng nil = unperturbed) and verifies it for its algorithm's
// layout class before returning. Unperturbed layouts come from the store,
// which builds each one here once.
// Counters recorded into sh are per-job work, never per-worker, so shard
// merges agree at any parallelism.
func buildLayout(alg AlgorithmName, b *bench, cfg cache.Config, rng *rand.Rand, sh *telemetry.Shard) (*program.Layout, error) {
	maybePerturb := func(g *graph.Graph) *graph.Graph {
		if rng == nil {
			return g
		}
		return perturb.Graph(g, perturb.DefaultScale, rng)
	}
	prog := b.pair.Bench.Prog
	context := b.pair.Bench.Name + "/" + string(alg)
	var layout *program.Layout
	var err error
	switch alg {
	case AlgDefault:
		layout = program.DefaultLayout(prog)
	case AlgPH:
		layout, err = baseline.PHLayout(prog, maybePerturb(b.wcgFull))
	case AlgHKC:
		layout, err = baseline.HKC(prog, maybePerturb(b.wcgPop), b.pop, cfg)
	case AlgGBSC:
		var m core.Metrics
		res := &trg.Result{
			Select:    maybePerturb(b.trgRes.Select),
			Place:     maybePerturb(b.trgRes.Place),
			Chunker:   b.trgRes.Chunker,
			AvgQProcs: b.trgRes.AvgQProcs,
		}
		layout, err = core.PlaceCounted(prog, res, b.pop, cfg, &m)
		if err == nil {
			sh.Add("gbsc/merges", m.Merges)
			sh.Add("gbsc/align_offsets", m.AlignOffsets)
			sh.Add("gbsc/heap_pops", m.HeapPops)
			sh.Add("gbsc/stale_pops", m.StalePops)
			sh.Add("gbsc/cross_edges", m.CrossEdges)
		}
	default:
		return nil, fmt.Errorf("%s: unknown algorithm", context)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", context, err)
	}
	switch alg {
	case AlgDefault, AlgPH:
		err = checkPacked(context, prog, layout)
	case AlgGBSC:
		err = checkAligned(context, prog, layout, b.pop, cfg)
	default:
		// HKC aligns only the compound procedures it colors.
		err = checkGeneral(context, prog, layout, b.pop, cfg)
	}
	if err != nil {
		return nil, err
	}
	sh.Add("placements/"+string(alg), 1)
	return layout, nil
}

// Render prints, per benchmark, the unperturbed MR table and distribution
// quantiles for each algorithm.
func (r *Figure5Result) Render(w io.Writer) error {
	for _, fb := range r.Benches {
		fmt.Fprintf(w, "== %s (%d perturbed runs, s=%.2f) ==\n", fb.Name, r.Runs, perturb.DefaultScale)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "alg\tMR (no random)\tmin\tp25\tmedian\tp75\tmax")
		for _, alg := range []AlgorithmName{AlgPH, AlgHKC, AlgGBSC} {
			s := fb.Sorted[alg]
			q := func(f float64) float64 {
				idx := int(f * float64(len(s)-1))
				return s[idx]
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				alg, pct(fb.Unperturbed[alg]),
				pct(s[0]), pct(q(0.25)), pct(q(0.5)), pct(q(0.75)), pct(s[len(s)-1]))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// CDF returns the plottable series for one benchmark and algorithm: pairs
// of (miss rate, fraction of placements with an equal or smaller rate),
// exactly the axes of Figure 5.
func (fb *Figure5Bench) CDF(alg AlgorithmName) [][2]float64 {
	s := fb.Sorted[alg]
	out := make([][2]float64, len(s))
	for i, mr := range s {
		out[i] = [2]float64{mr, float64(i+1) / float64(len(s))}
	}
	return out
}

// WriteCSV emits every panel's CDF points as long-form CSV
// (benchmark,alg,missrate,fraction), ready for any plotting tool.
func (r *Figure5Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "benchmark,alg,missrate,fraction"); err != nil {
		return err
	}
	for _, fb := range r.Benches {
		for _, alg := range []AlgorithmName{AlgPH, AlgHKC, AlgGBSC} {
			for _, pt := range fb.CDF(alg) {
				if _, err := fmt.Fprintf(w, "%s,%s,%.6f,%.4f\n", fb.Name, alg, pt[0], pt[1]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
