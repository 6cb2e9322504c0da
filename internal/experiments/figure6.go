package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/tracegen"
)

// Figure6Point is one randomized layout of the go benchmark: its simulated
// miss rate and the two candidate conflict metrics evaluated over the whole
// placement.
type Figure6Point struct {
	MissRate  float64
	TRGMetric int64
	WCGMetric int64
}

// Figure6Result holds the 80 points and the correlation coefficients.
type Figure6Result struct {
	Points []Figure6Point
	// TRGCorr and WCGCorr are the Pearson correlations between miss rate
	// and each metric. The paper's claim: the TRG metric is close to
	// linear in the miss count (points near the diagonal); the WCG metric
	// is not always a good predictor.
	TRGCorr float64
	WCGCorr float64
}

// Figure6 regenerates the paper's Figure 6: starting from the GBSC
// placement of the go benchmark, randomly select 0–50 procedures and
// randomize their cache-relative offsets, producing 80 layouts with a range
// of miss rates; for each, record the miss rate and both conflict metrics.
//
// Miss rates are simulated on the training trace: the conflict metric is
// computed from the training profile, and Figure 6 validates that this
// metric is a linear predictor of the misses of the behaviour it
// summarizes (Section 3's requirement). Using the testing trace would
// conflate metric quality with train/test input divergence.
func Figure6(opts Options) (*Figure6Result, error) {
	opts.setDefaults()
	if err := opts.Cache.Validate(); err != nil {
		return nil, err
	}
	pair := tracegen.Lookup(tracegen.Suite(opts.Scale), "go")
	if pair == nil {
		return nil, fmt.Errorf("experiments: go benchmark missing from suite")
	}
	b, err := prepare(pair, opts.Cache, opts.Telemetry.Shard())
	if err != nil {
		return nil, err
	}
	prog := pair.Bench.Prog
	items, err := core.Assign(prog, b.trgRes, b.pop, opts.Cache)
	if err != nil {
		return nil, err
	}

	// The mutation stream is drawn serially from one RNG (each point's
	// mutations depend on how many draws the previous points consumed), so
	// the cheap randomization stays a sequential pre-pass; the expensive
	// linearization + simulation of each layout then fans out across
	// workers, each writing its index-addressed point.
	rng := rand.New(rand.NewSource(opts.Seed))
	const numPoints = 80
	res := &Figure6Result{Points: make([]Figure6Point, numPoints)}
	period := opts.Cache.NumLines()
	mutations := make([][]place.Placed, numPoints)
	for i := range mutations {
		mutated := make([]place.Placed, len(items))
		copy(mutated, items)
		nMut := rng.Intn(51) // 0–50 procedures
		for m := 0; m < nMut && len(mutated) > 0; m++ {
			idx := rng.Intn(len(mutated))
			mutated[idx].Line = rng.Intn(period)
		}
		mutations[i] = mutated
	}
	err = runParallel(opts.parallelism(), numPoints,
		func() *cache.Sim { return cache.MustNewSim(opts.Cache) },
		func(sim *cache.Sim, i int) error {
			layout, err := core.Linearize(prog, mutations[i], b.pop, opts.Cache)
			if err != nil {
				return err
			}
			// Each randomized layout must still honor its mutated line
			// assignments exactly — that is what the metric evaluates.
			if err := checkLayout(fmt.Sprintf("figure6/point%d", i), prog, layout, invariant.LayoutOptions{
				Cache: opts.Cache, Popular: b.pop, Placed: mutations[i],
				Chunker: b.trgRes.Chunker, RequireAlignedPopular: true,
			}); err != nil {
				return err
			}
			res.Points[i] = Figure6Point{
				MissRate:  sim.RunCompiled(b.ctTrain, layout).MissRate(),
				TRGMetric: metrics.TRGConflict(layout, b.trgRes.Place, b.trgRes.Chunker, opts.Cache),
				WCGMetric: metrics.WCGConflict(layout, b.wcgFull, opts.Cache),
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	mrs := make([]float64, len(res.Points))
	trgs := make([]float64, len(res.Points))
	wcgs := make([]float64, len(res.Points))
	for i, p := range res.Points {
		mrs[i] = p.MissRate
		trgs[i] = float64(p.TRGMetric)
		wcgs[i] = float64(p.WCGMetric)
	}
	res.TRGCorr = metrics.Pearson(trgs, mrs)
	res.WCGCorr = metrics.Pearson(wcgs, mrs)
	return res, nil
}

// Render prints the correlation summary and the raw points as two series.
func (r *Figure6Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 6: conflict metric vs cache misses (go, %d layouts) ==\n", len(r.Points))
	fmt.Fprintf(w, "Pearson r (TRG_place metric vs miss rate): %.3f\n", r.TRGCorr)
	fmt.Fprintf(w, "Pearson r (WCG metric vs miss rate):      %.3f\n", r.WCGCorr)
	fmt.Fprintln(w, "missrate\ttrg_metric\twcg_metric")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%.5f\t%d\t%d\n", p.MissRate, p.TRGMetric, p.WCGMetric)
	}
	return nil
}
