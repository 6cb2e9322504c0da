package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/popular"
	"repro/internal/split"
	"repro/internal/trg"
)

// SplittingRow compares plain GBSC with procedure splitting + GBSC for one
// benchmark — the combination the paper's conclusion predicts "can ...
// achieve further improvements".
type SplittingRow struct {
	Name string
	// Splits is how many procedures were divided into hot/cold parts.
	Splits int
	// GBSC is the plain placement's classified result on the test trace;
	// SplitGBSC is the split placement's on the transformed test trace.
	GBSC, SplitGBSC cache.ClassifiedStats
}

// SplittingResult is the table over the suite.
type SplittingResult struct {
	Rows []SplittingRow
}

// Splitting evaluates procedure splitting combined with GBSC placement.
func Splitting(opts Options) (*SplittingResult, error) {
	opts.setDefaults()
	pairs, err := opts.suite()
	if err != nil {
		return nil, err
	}
	rows := make([]SplittingRow, len(pairs))
	err = forEach(opts.parallelism(), len(pairs), func(i int) error {
		pair := pairs[i]
		b, err := prepare(pair, opts.Cache, opts.Telemetry.Shard())
		if err != nil {
			return err
		}
		prog := pair.Bench.Prog
		row := SplittingRow{Name: pair.Bench.Name}

		plain, err := core.Place(prog, b.trgRes, b.pop, opts.Cache)
		if err != nil {
			return err
		}
		if err := checkAligned(row.Name+"/splitting-plain", prog, plain, b.pop, opts.Cache); err != nil {
			return err
		}
		if row.GBSC, _, err = cache.RunCompiledClassified(opts.Cache, b.ctTest, plain); err != nil {
			return err
		}

		// Split on the training profile, transform both traces, and run
		// the full pipeline on the split program.
		sp, err := split.Split(prog, b.train, split.Options{
			Align: opts.Cache.LineBytes,
		})
		if err != nil {
			return err
		}
		row.Splits = sp.Splits
		strain, err := sp.TransformTrace(prog, b.train)
		if err != nil {
			return err
		}
		stest, err := sp.TransformTrace(prog, b.test)
		if err != nil {
			return err
		}
		spop := popular.Select(sp.Prog, strain, popular.Options{})
		sres, err := trg.Build(sp.Prog, strain, trg.Options{
			CacheBytes: opts.Cache.SizeBytes,
			Popular:    spop,
		})
		if err != nil {
			return err
		}
		slayout, err := core.Place(sp.Prog, sres, spop, opts.Cache)
		if err != nil {
			return err
		}
		// Checked against the transformed program: splitting must conserve
		// the split program's bytes, not the original's.
		if err := checkLayout(row.Name+"/splitting-split", sp.Prog, slayout, invariant.LayoutOptions{
			Cache: opts.Cache, Popular: spop, Chunker: sres.Chunker,
			RequireAlignedPopular: true,
		}); err != nil {
			return err
		}
		if row.SplitGBSC, err = cache.RunTraceClassified(opts.Cache, slayout, stest); err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SplittingResult{Rows: rows}, nil
}

// Render prints the comparison.
func (r *SplittingResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "== Procedure splitting + GBSC (conclusion's orthogonal combination) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tsplits\tGBSC MR\tsplit+GBSC MR\tGBSC conflicts\tsplit+GBSC conflicts")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\t%d\n",
			row.Name, row.Splits,
			pct(row.GBSC.MissRate()), pct(row.SplitGBSC.MissRate()),
			row.GBSC.Conflict, row.SplitGBSC.Conflict)
	}
	return tw.Flush()
}
