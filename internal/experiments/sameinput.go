package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/tracegen"
)

// SameInputResult reproduces the Section 5.3 aside: on m88ksim the paper's
// training input (dcrand) predicts the testing input (dhry) poorly, so the
// authors also report train==test miss rates: GBSC 0.13%, HKC 0.19%,
// PH 0.23%. This experiment trains and tests on the same trace and reports
// the per-algorithm ordering.
type SameInputResult struct {
	Benchmark string
	Input     string
	MissRates map[AlgorithmName]float64
}

// SameInput runs the experiment on m88ksim (or the first benchmark of the
// filtered suite) using the training input for both roles.
func SameInput(opts Options) (*SameInputResult, error) {
	opts.setDefaults()
	pairs, err := opts.suite()
	if err != nil {
		return nil, err
	}
	pair := tracegen.Lookup(pairs, "m88ksim")
	if len(opts.Benchmarks) > 0 {
		pair = pairs[0]
	}
	// Train and test on the same input.
	sh := opts.Telemetry.Shard()
	b, err := opts.Store.bench(sh, pair, pair.Train, cache.PaperConfig.SizeBytes)
	if err != nil {
		return nil, err
	}
	layouts := make([]*program.Layout, len(figure5Algs))
	for i, alg := range figure5Algs {
		if layouts[i], err = buildLayout(alg, b, cache.PaperConfig, nil, sh); err != nil {
			return nil, err
		}
	}
	mrs, err := scoreLayouts(cache.PaperConfig, b, layouts, sh)
	if err != nil {
		return nil, err
	}
	res := &SameInputResult{
		Benchmark: pair.Bench.Name,
		Input:     pair.Train.Name,
		MissRates: map[AlgorithmName]float64{},
	}
	for i, alg := range figure5Algs {
		res.MissRates[alg] = mrs[i]
	}
	return res, nil
}

// Render prints the miss rates in the paper's order.
func (r *SameInputResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "== Section 5.3 train==test (%s, input %s) ==\n", r.Benchmark, r.Input)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "alg\tmiss rate")
	for _, alg := range []AlgorithmName{AlgGBSC, AlgHKC, AlgPH} {
		fmt.Fprintf(tw, "%s\t%s\n", alg, pct(r.MissRates[alg]))
	}
	return tw.Flush()
}
