package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// PageLocalityRow compares the standard Section 4.3 linearization with the
// page-locality-aware variant for one benchmark.
type PageLocalityRow struct {
	Name string
	// Cache miss rates (must be nearly identical: alignments are shared).
	StdMR, PageMR float64
	// Page behaviour at 8 KB pages.
	StdPages, PagePages metrics.PageStats
	// iTLB miss rates (32-entry fully-associative LRU, 8 KB pages).
	StdTLB, PageTLB float64
}

// PageLocalityResult is the table over the suite.
type PageLocalityResult struct {
	PageBytes int
	Rows      []PageLocalityRow
}

// PageLocality evaluates the extension the paper sketches at the end of
// Section 4.3: a linear ordering that also reduces paging problems.
func PageLocality(opts Options) (*PageLocalityResult, error) {
	opts.setDefaults()
	const pageBytes = 8192
	rows, err := forSuite(&opts, cache.PaperConfig, func(_ *telemetry.Shard, b *bench, row *PageLocalityRow) error {
		pair, prog := b.pair, b.pair.Bench.Prog

		std, err := core.Place(prog, b.trgRes, b.pop, cache.PaperConfig)
		if err != nil {
			return err
		}
		if err := checkAligned(pair.Bench.Name+"/pagelocal-std", prog, std, b.pop, cache.PaperConfig); err != nil {
			return err
		}
		paged, err := core.PlacePageAware(prog, b.trgRes, b.pop, cache.PaperConfig)
		if err != nil {
			return err
		}
		if err := checkAligned(pair.Bench.Name+"/pagelocal-paged", prog, paged, b.pop, cache.PaperConfig); err != nil {
			return err
		}

		row.Name = pair.Bench.Name
		if row.StdMR, err = cache.MissRateCompiled(cache.PaperConfig, b.ctTest, std); err != nil {
			return err
		}
		if row.PageMR, err = cache.MissRateCompiled(cache.PaperConfig, b.ctTest, paged); err != nil {
			return err
		}
		row.StdPages = metrics.Pages(std, b.test, pageBytes)
		row.PagePages = metrics.Pages(paged, b.test, pageBytes)

		tlbCfg := cache.TLBConfig{Entries: 32, PageBytes: pageBytes}
		stdTLB, _, err := cache.RunCompiledTLB(tlbCfg, b.ctTest, std)
		if err != nil {
			return err
		}
		pageTLB, _, err := cache.RunCompiledTLB(tlbCfg, b.ctTest, paged)
		if err != nil {
			return err
		}
		row.StdTLB = stdTLB.MissRate()
		row.PageTLB = pageTLB.MissRate()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &PageLocalityResult{PageBytes: pageBytes, Rows: rows}, nil
}

// Render prints the comparison.
func (r *PageLocalityResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "== Section 4.3 extension: page-locality linearization (%d KB pages) ==\n", r.PageBytes/1024)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tMR std\tMR page\ttransitions std\ttransitions page\tavg WSS std\tavg WSS page\tiTLB std\tiTLB page")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.1f\t%.1f\t%s\t%s\n",
			row.Name, pct(row.StdMR), pct(row.PageMR),
			row.StdPages.Transitions, row.PagePages.Transitions,
			row.StdPages.WSSPages, row.PagePages.WSSPages,
			pct(row.StdTLB), pct(row.PageTLB))
	}
	return tw.Flush()
}
