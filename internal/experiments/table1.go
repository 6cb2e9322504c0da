package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/telemetry"
)

// Table1Row mirrors one row of the paper's Table 1.
type Table1Row struct {
	Name string
	// All procedures.
	TotalSize int
	ProcCount int
	// Popular procedures (selected from the training profile).
	PopularSize  int
	PopularCount int
	// Training and testing traces.
	TrainInput  string
	TrainEvents int
	TrainRefs   int64
	TestInput   string
	TestEvents  int
	TestRefs    int64
	// Miss rate of the default (link-order) layout on the testing trace.
	DefaultMissRate float64
	// Average number of procedures in Q during TRG construction.
	AvgQSize float64
}

// Table1Result is the full table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 regenerates the paper's Table 1 for the synthetic suite.
func Table1(opts Options) (*Table1Result, error) {
	opts.setDefaults()
	rows, err := forSuite(&opts, cache.PaperConfig, func(sh *telemetry.Shard, b *bench, row *Table1Row) error {
		pair, prog := b.pair, b.pair.Bench.Prog
		def, err := opts.Store.layouts(sh, b, cache.PaperConfig, AlgDefault)
		if err != nil {
			return err
		}
		mr, err := scoreLayouts(cache.PaperConfig, b, def, sh)
		if err != nil {
			return err
		}
		*row = Table1Row{
			Name:            pair.Bench.Name,
			TotalSize:       prog.TotalSize(),
			ProcCount:       prog.NumProcs(),
			PopularSize:     b.pop.TotalSize(prog),
			PopularCount:    b.pop.Len(),
			TrainInput:      pair.Train.Name,
			TrainEvents:     b.train.Len(),
			TrainRefs:       b.train.NumLineRefs(prog, cache.PaperConfig.LineBytes),
			TestInput:       pair.Test.Name,
			TestEvents:      b.test.Len(),
			TestRefs:        b.test.NumLineRefs(prog, cache.PaperConfig.LineBytes),
			DefaultMissRate: mr[0],
			AvgQSize:        b.trgRes.AvgQProcs,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows}, nil
}

// Render prints the table in the layout of the paper's Table 1.
func (r *Table1Result) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tall size\tall count\tpop size\tpop count\ttrain input\ttrain refs\ttest input\ttest refs\tdefault MR\tavg Q size")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%dK\t%d\t%dK\t%d\t%s\t%.1fM\t%s\t%.1fM\t%s\t%.1f\n",
			row.Name,
			row.TotalSize/1024, row.ProcCount,
			row.PopularSize/1024, row.PopularCount,
			row.TrainInput, float64(row.TrainRefs)/1e6,
			row.TestInput, float64(row.TestRefs)/1e6,
			pct(row.DefaultMissRate), row.AvgQSize)
	}
	return tw.Flush()
}
