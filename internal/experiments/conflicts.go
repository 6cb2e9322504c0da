package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/telemetry"
)

// ConflictRow breaks down the misses of each placement by class for one
// benchmark. Code placement can only remove conflict misses — cold and
// capacity misses are layout-invariant (up to line-granularity effects) —
// so this table shows directly how much of the removable pool each
// algorithm actually removes.
type ConflictRow struct {
	Name string
	// Per layout: cold, capacity, conflict miss counts.
	Default, PH, HKC, GBSC cache.ClassifiedStats
}

// ConflictsResult is the breakdown over the suite.
type ConflictsResult struct {
	Rows []ConflictRow
}

// Conflicts classifies the misses of the default, PH, HKC and GBSC layouts
// on each benchmark's testing trace.
func Conflicts(opts Options) (*ConflictsResult, error) {
	opts.setDefaults()
	rows, err := forSuite(&opts, cache.PaperConfig, func(sh *telemetry.Shard, b *bench, row *ConflictRow) error {
		row.Name = b.pair.Bench.Name
		layouts, err := opts.Store.layouts(sh, b, cache.PaperConfig, AlgDefault, AlgPH, AlgHKC, AlgGBSC)
		if err != nil {
			return err
		}
		for k, dst := range []*cache.ClassifiedStats{&row.Default, &row.PH, &row.HKC, &row.GBSC} {
			if *dst, _, err = cache.RunCompiledClassified(cache.PaperConfig, b.ctTest, layouts[k]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ConflictsResult{Rows: rows}, nil
}

// Render prints the per-class miss counts.
func (r *ConflictsResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "== Miss classification (cold + capacity + conflict = total) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tlayout\tcold\tcapacity\tconflict\ttotal\tMR")
	for _, row := range r.Rows {
		for _, e := range []struct {
			name string
			cs   cache.ClassifiedStats
		}{
			{"default", row.Default},
			{"PH", row.PH},
			{"HKC", row.HKC},
			{"GBSC", row.GBSC},
		} {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
				row.Name, e.name, e.cs.Cold, e.cs.Capacity, e.cs.Conflict,
				e.cs.Misses, pct(e.cs.MissRate()))
		}
	}
	return tw.Flush()
}
