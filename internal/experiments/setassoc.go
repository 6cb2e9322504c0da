package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trg"
)

// SetAssocRow compares placements on a 2-way set-associative cache for one
// benchmark: the default layout, the direct-mapped GBSC placement simulated
// on the 2-way cache, and the Section 6 pair-database placement.
type SetAssocRow struct {
	Name          string
	DefaultMR     float64
	DirectGBSCMR  float64
	AssocGBSCMR   float64
	PairDBEntries int
}

// SetAssocResult is the whole comparison.
type SetAssocResult struct {
	Cache cache.Config
	Rows  []SetAssocRow
}

// SetAssoc runs the Section 6 experiment: an 8 KB 2-way LRU cache with
// 32-byte lines.
func SetAssoc(opts Options) (*SetAssocResult, error) {
	opts.setDefaults()
	assocCfg := cache.Config{
		SizeBytes: cache.PaperConfig.SizeBytes,
		LineBytes: cache.PaperConfig.LineBytes,
		Assoc:     2,
	}
	rows, err := forSuite(&opts, cache.PaperConfig, func(sh *telemetry.Shard, b *bench, row *SetAssocRow) error {
		pair, prog := b.pair, b.pair.Bench.Prog

		// Pair database for the associative cost model.
		trgPairs, db, err := trg.BuildPairs(prog, b.train, trg.Options{
			CacheBytes: cache.PaperConfig.SizeBytes,
			Popular:    b.pop,
		})
		if err != nil {
			return err
		}

		defLayout := program.DefaultLayout(prog)
		if err := checkPacked(pair.Bench.Name+"/setassoc-default", prog, defLayout); err != nil {
			return err
		}

		dmLayout, err := core.Place(prog, b.trgRes, b.pop, cache.PaperConfig)
		if err != nil {
			return err
		}
		if err := checkAligned(pair.Bench.Name+"/setassoc-direct", prog, dmLayout, b.pop, cache.PaperConfig); err != nil {
			return err
		}

		asLayout, err := core.PlaceAssoc(prog, trgPairs, db, b.pop, assocCfg)
		if err != nil {
			return err
		}
		// The Section 6 placement aligns popular procedures to set
		// boundaries: the period is the set count, not the line count.
		if err := checkLayout(pair.Bench.Name+"/setassoc-2way", prog, asLayout, invariant.LayoutOptions{
			Cache: assocCfg, Popular: b.pop, Period: assocCfg.NumSets(),
			RequireAlignedPopular: true,
		}); err != nil {
			return err
		}

		// The three candidates score one after another on the 2-way
		// geometry, through the engine's LRU walk.
		mrs, err := scoreLayouts(assocCfg, b, []*program.Layout{defLayout, dmLayout, asLayout}, sh)
		if err != nil {
			return err
		}
		*row = SetAssocRow{
			Name:          pair.Bench.Name,
			DefaultMR:     mrs[0],
			DirectGBSCMR:  mrs[1],
			AssocGBSCMR:   mrs[2],
			PairDBEntries: db.Len(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SetAssocResult{Cache: assocCfg, Rows: rows}, nil
}

// Render prints the comparison.
func (r *SetAssocResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "== Section 6: %dKB 2-way LRU cache ==\n", r.Cache.SizeBytes/1024)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tdefault\tGBSC(direct)\tGBSC(2-way D)\tpair-db entries")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n",
			row.Name, pct(row.DefaultMR), pct(row.DirectGBSCMR), pct(row.AssocGBSCMR), row.PairDBEntries)
	}
	return tw.Flush()
}
