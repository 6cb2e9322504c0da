package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/program"
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
	pairs, err := opts.suite()
	if err != nil {
		return nil, err
	}
	rows := make([]ConflictRow, len(pairs))
	err = forEach(opts.parallelism(), len(pairs), func(i int) error {
		pair := pairs[i]
		b, err := prepare(pair, opts.Cache, opts.Telemetry.Shard())
		if err != nil {
			return err
		}
		prog := pair.Bench.Prog
		row := ConflictRow{Name: pair.Bench.Name}

		phl, err := baseline.PHLayout(prog, b.wcgFull)
		if err != nil {
			return err
		}
		if err := checkPacked(row.Name+"/PH", prog, phl); err != nil {
			return err
		}
		hkcl, err := baseline.HKC(prog, b.wcgPop, b.pop, opts.Cache)
		if err != nil {
			return err
		}
		if err := checkGeneral(row.Name+"/HKC", prog, hkcl, b.pop, opts.Cache); err != nil {
			return err
		}
		gbscl, err := core.Place(prog, b.trgRes, b.pop, opts.Cache)
		if err != nil {
			return err
		}
		if err := checkAligned(row.Name+"/GBSC", prog, gbscl, b.pop, opts.Cache); err != nil {
			return err
		}
		def := program.DefaultLayout(prog)
		if err := checkPacked(row.Name+"/default", prog, def); err != nil {
			return err
		}

		layouts := []struct {
			dst    *cache.ClassifiedStats
			layout *program.Layout
		}{
			{&row.Default, def},
			{&row.PH, phl},
			{&row.HKC, hkcl},
			{&row.GBSC, gbscl},
		}
		for _, l := range layouts {
			cs, _, err := cache.RunCompiledClassified(opts.Cache, b.ctTest, l.layout)
			if err != nil {
				return err
			}
			*l.dst = cs
		}
		rows[i] = row
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
