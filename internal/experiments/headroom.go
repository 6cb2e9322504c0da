package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/anneal"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/telemetry"
)

// HeadroomRow compares GBSC to a simulated-annealing optimizer of the same
// conflict metric on one benchmark: how much improvement is still on the
// table above the greedy heuristic at full benchmark scale?
type HeadroomRow struct {
	Name string
	// Test-trace miss rates.
	GBSCMR, AnnealMR float64
	// Training-TRG conflict-metric values of the two layouts.
	GBSCMetric, AnnealMetric int64
}

// HeadroomResult is the table over the suite.
type HeadroomResult struct {
	Steps int
	Rows  []HeadroomRow
}

// Headroom runs the comparison. The annealer starts from GBSC's own
// assignment, so it can only refine, never regress, in metric terms.
func Headroom(opts Options) (*HeadroomResult, error) {
	opts.setDefaults()
	const steps = 60_000
	rows, err := forSuite(&opts, cache.PaperConfig, func(sh *telemetry.Shard, b *bench, row *HeadroomRow) error {
		prog := b.pair.Bench.Prog
		row.Name = b.pair.Bench.Name

		items, err := core.Assign(prog, b.trgRes, b.pop, cache.PaperConfig)
		if err != nil {
			return err
		}
		gl, err := core.Linearize(prog, items, b.pop, cache.PaperConfig)
		if err != nil {
			return err
		}
		if err := checkLayout(row.Name+"/headroom-gbsc", prog, gl, invariant.LayoutOptions{
			Cache: cache.PaperConfig, Popular: b.pop, Placed: items,
			Chunker: b.trgRes.Chunker, RequireAlignedPopular: true,
		}); err != nil {
			return err
		}
		row.GBSCMetric = metrics.TRGConflict(gl, b.trgRes.Place, b.trgRes.Chunker, cache.PaperConfig)

		al, err := anneal.Place(prog, b.trgRes, b.pop, cache.PaperConfig, anneal.Options{
			Steps: steps,
			Seed:  opts.Seed,
			Init:  items,
		})
		if err != nil {
			return err
		}
		if err := checkAligned(row.Name+"/headroom-anneal", prog, al, b.pop, cache.PaperConfig); err != nil {
			return err
		}
		row.AnnealMetric = metrics.TRGConflict(al, b.trgRes.Place, b.trgRes.Chunker, cache.PaperConfig)
		mrs, err := scoreLayouts(cache.PaperConfig, b, []*program.Layout{gl, al}, sh)
		if err != nil {
			return err
		}
		row.GBSCMR, row.AnnealMR = mrs[0], mrs[1]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &HeadroomResult{Steps: steps, Rows: rows}, nil
}

// Render prints the comparison.
func (r *HeadroomResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "== Headroom above greedy: GBSC vs simulated annealing (%d steps, GBSC-seeded) ==\n", r.Steps)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tGBSC MR\tanneal MR\tGBSC metric\tanneal metric")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\n",
			row.Name, pct(row.GBSCMR), pct(row.AnnealMR), row.GBSCMetric, row.AnnealMetric)
	}
	return tw.Flush()
}
