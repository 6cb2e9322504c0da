package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/sample"
	"repro/internal/telemetry"
)

// SamplingCell is one (benchmark, algorithm) comparison of the sampled
// estimator against the exact compiled replay, both scoring the same
// unperturbed layout on the testing trace.
type SamplingCell struct {
	Bench string
	Alg   AlgorithmName
	Exact float64
	Est   sample.Estimate
}

// AbsErr returns |sampled − exact| in absolute miss-rate units.
func (c SamplingCell) AbsErr() float64 { return math.Abs(c.Est.MissRate - c.Exact) }

// SamplingResult is the error-vs-speedup table backing the "Sampled
// evaluation" section of EXPERIMENTS.md: for every benchmark and paper
// algorithm, the exact miss rate, the sampled estimate with its confidence
// interval, and the replayed-event reduction buying the speedup.
//
// Record copies no miss rates out of it: the run report's miss-rate cells
// are the exact experiments' alone. Render emits no wall-clock values —
// the serial/parallel byte-identity gate covers this output too.
type SamplingResult struct {
	Scale float64
	Cells []SamplingCell
	// TotalEvents sums the testing traces' event counts; ReplayedEvents
	// sums the events (warm-up included) one sampled sweep of the same
	// traces replays. Their ratio is the replay-bound speedup proxy.
	TotalEvents    int64
	ReplayedEvents int64
}

// MeanAbsErr returns the mean absolute miss-rate error over all cells.
func (r *SamplingResult) MeanAbsErr() float64 {
	if len(r.Cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range r.Cells {
		sum += c.AbsErr()
	}
	return sum / float64(len(r.Cells))
}

// MaxAbsErr returns the largest absolute miss-rate error.
func (r *SamplingResult) MaxAbsErr() float64 {
	var max float64
	for _, c := range r.Cells {
		if e := c.AbsErr(); e > max {
			max = e
		}
	}
	return max
}

// Covered returns how many cells' confidence intervals contained the exact
// value.
func (r *SamplingResult) Covered() int {
	n := 0
	for _, c := range r.Cells {
		if c.Est.Covers(c.Exact) {
			n++
		}
	}
	return n
}

// ReplayFraction returns replayed events as a fraction of the full traces.
func (r *SamplingResult) ReplayFraction() float64 {
	if r.TotalEvents == 0 {
		return 0
	}
	return float64(r.ReplayedEvents) / float64(r.TotalEvents)
}

// Sampling measures the sampled estimator against the exact oracle on the
// real benchmark suite: each testing trace gets one window plan, and each
// (benchmark, algorithm) layout is scored both ways. The grid is sharded
// across Options.Parallel workers with index-addressed cells, so the
// result is byte-identical at every worker count.
func Sampling(opts Options) (*SamplingResult, error) {
	opts.setDefaults()
	benches, err := forSuite(&opts, cache.PaperConfig, keep)
	if err != nil {
		return nil, err
	}

	out := &SamplingResult{Scale: opts.Scale, Cells: make([]SamplingCell, len(benches)*len(figure5Algs))}
	// A plan is layout-independent, so one evaluator serves all of a
	// benchmark's layouts.
	evals := make([]*sample.Evaluator, len(benches))
	sh := opts.Telemetry.Shard()
	for i, b := range benches {
		plan, err := sample.NewPlan(b.pair.Bench.Prog, b.test, cache.PaperConfig.LineBytes, sample.Options{Seed: opts.Seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: sampling plan for %s: %w", b.pair.Bench.Name, err)
		}
		evals[i] = sample.NewEvaluator(b.ctTest, plan)
		sh.Add("sample/windows", int64(len(plan.Windows)))
		sh.Add("sample/planned_events", plan.EventsReplayed())
		out.TotalEvents += int64(plan.TotalEvents)
		out.ReplayedEvents += plan.EventsReplayed()
	}
	err = runParallel(opts.parallelism(), len(out.Cells),
		func() *telemetry.Shard { return opts.Telemetry.Shard() },
		func(sh *telemetry.Shard, i int) error {
			bi, ai := i/len(figure5Algs), i%len(figure5Algs)
			b, alg := benches[bi], figure5Algs[ai]
			layouts, err := opts.Store.layouts(sh, b, cache.PaperConfig, alg)
			if err != nil {
				return err
			}
			exact, err := scoreLayouts(cache.PaperConfig, b, layouts, sh)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", b.pair.Bench.Name, alg, err)
			}
			ests, err := evals[bi].MissRateBatch(cache.MustNewBatchSim(cache.PaperConfig), layouts)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", b.pair.Bench.Name, alg, err)
			}
			est := ests[0]
			sh.Observe("sample/abs_err_ppm", int64(math.Round(math.Abs(est.MissRate-exact[0])*1e6)))
			out.Cells[i] = SamplingCell{Bench: b.pair.Bench.Name, Alg: alg, Exact: exact[0], Est: est}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Render prints the per-cell comparison and the aggregate error/speedup
// summary.
func (r *SamplingResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "== sampled vs exact miss rates (s=%.2f) ==\n", r.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\talg\texact\tsampled\t|err|\t±ci\twindows\tcovered")
	for _, c := range r.Cells {
		cov := "yes"
		if !c.Est.Covers(c.Exact) {
			cov = "NO"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.4fpp\t%.4fpp\t%d\t%s\n",
			c.Bench, c.Alg, pct(c.Exact), pct(c.Est.MissRate),
			100*c.AbsErr(), 100*c.Est.CIHalf, c.Est.Windows, cov)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	speedup := "-"
	if r.ReplayedEvents > 0 {
		speedup = fmt.Sprintf("%.1fx", float64(r.TotalEvents)/float64(r.ReplayedEvents))
	}
	fmt.Fprintf(w, "mean |err| %.4fpp, max |err| %.4fpp, CI coverage %d/%d, replayed %.1f%% of events (%s replay reduction)\n",
		100*r.MeanAbsErr(), 100*r.MaxAbsErr(), r.Covered(), len(r.Cells),
		100*r.ReplayFraction(), speedup)
	return nil
}
