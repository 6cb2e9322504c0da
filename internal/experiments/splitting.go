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
	"repro/internal/telemetry"
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
	rows, err := forSuite(&opts, cache.PaperConfig, func(sh *telemetry.Shard, b *bench, row *SplittingRow) error {
		prog := b.pair.Bench.Prog
		row.Name = b.pair.Bench.Name

		plain, err := opts.Store.layouts(sh, b, cache.PaperConfig, AlgGBSC)
		if err != nil {
			return err
		}
		if row.GBSC, _, err = cache.RunCompiledClassified(cache.PaperConfig, b.ctTest, plain[0]); err != nil {
			return err
		}

		// Split on the training profile, transform both traces, and run
		// the full pipeline on the split program.
		sp, err := split.Split(prog, b.train, split.Options{
			Align: cache.PaperConfig.LineBytes,
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
		sres, _, err := buildTRG(row.Name+"/splitting-split", sp.Prog, strain, trg.Options{
			CacheBytes: cache.PaperConfig.SizeBytes,
			Popular:    spop,
		})
		if err != nil {
			return err
		}
		slayout, err := core.Place(sp.Prog, sres, spop, cache.PaperConfig)
		if err != nil {
			return err
		}
		// Checked against the transformed program: splitting must conserve
		// the split program's bytes, not the original's.
		if err := checkLayout(row.Name+"/splitting-split", sp.Prog, slayout, invariant.LayoutOptions{
			Cache: cache.PaperConfig, Popular: spop, Chunker: sres.Chunker,
			RequireAlignedPopular: true,
		}); err != nil {
			return err
		}
		row.SplitGBSC, err = cache.RunTraceClassified(cache.PaperConfig, slayout, stest)
		return err
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
