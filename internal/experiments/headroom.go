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
	pairs, err := opts.suite()
	if err != nil {
		return nil, err
	}
	rows := make([]HeadroomRow, len(pairs))
	err = forEach(opts.parallelism(), len(pairs), func(i int) error {
		pair := pairs[i]
		b, err := prepare(pair, opts.Cache, opts.Telemetry.Shard())
		if err != nil {
			return err
		}
		prog := pair.Bench.Prog
		row := HeadroomRow{Name: pair.Bench.Name}

		items, err := core.Assign(prog, b.trgRes, b.pop, opts.Cache)
		if err != nil {
			return err
		}
		gl, err := core.Linearize(prog, items, b.pop, opts.Cache)
		if err != nil {
			return err
		}
		if err := checkLayout(row.Name+"/headroom-gbsc", prog, gl, invariant.LayoutOptions{
			Cache: opts.Cache, Popular: b.pop, Placed: items,
			Chunker: b.trgRes.Chunker, RequireAlignedPopular: true,
		}); err != nil {
			return err
		}
		if row.GBSCMR, err = cache.MissRateCompiled(opts.Cache, b.ctTest, gl); err != nil {
			return err
		}
		row.GBSCMetric = metrics.TRGConflict(gl, b.trgRes.Place, b.trgRes.Chunker, opts.Cache)

		al, err := anneal.Place(prog, b.trgRes, b.pop, opts.Cache, anneal.Options{
			Steps: steps,
			Seed:  opts.Seed,
			Init:  items,
		})
		if err != nil {
			return err
		}
		if err := checkAligned(row.Name+"/headroom-anneal", prog, al, b.pop, opts.Cache); err != nil {
			return err
		}
		if row.AnnealMR, err = cache.MissRateCompiled(opts.Cache, b.ctTest, al); err != nil {
			return err
		}
		row.AnnealMetric = metrics.TRGConflict(al, b.trgRes.Place, b.trgRes.Chunker, opts.Cache)
		rows[i] = row
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
