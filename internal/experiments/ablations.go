package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trg"
)

// AblationRow holds the miss rates of GBSC variants for one benchmark,
// probing the design choices Section 4 argues for.
type AblationRow struct {
	Name string
	// Full is the complete GBSC configuration (chunking, Q bound 2x).
	Full float64
	// NoChunking uses whole procedures as TRG_place blocks (chunk size >=
	// any procedure), removing the fine-grained alignment information that
	// Section 4.2 says is needed for procedures larger than the cache.
	NoChunking float64
	// QHalf and QDouble change the Q bound factor from 2x the cache size
	// to 1x and 4x (Section 3 reports 2x works well).
	QHalf   float64
	QDouble float64
	// PHWithTRG runs the PH chain algorithm but driven by TRG_select
	// instead of the WCG — Section 4's remark that "extra temporal
	// ordering information alone is not sufficient".
	PHWithTRG float64
}

// AblationsResult is the table over the suite.
type AblationsResult struct {
	Rows []AblationRow
}

// Ablations regenerates the design-choice ablations listed in DESIGN.md.
// Each (benchmark, variant) cell is independent once the benchmark is
// prepared, so the grid shards flat across workers; variants write distinct
// fields of their row, keyed by cell index.
func Ablations(opts Options) (*AblationsResult, error) {
	opts.setDefaults()
	benches, err := forSuite(&opts, cache.PaperConfig, keep)
	if err != nil {
		return nil, err
	}

	const numVariants = 5
	rows := make([]AblationRow, len(benches))
	for i, b := range benches {
		rows[i].Name = b.pair.Bench.Name
	}
	err = runParallel(opts.parallelism(), len(benches)*numVariants,
		func() *telemetry.Shard { return opts.Telemetry.Shard() },
		func(sh *telemetry.Shard, i int) error {
			bi, vi := i/numVariants, i%numVariants
			b, row := benches[bi], &rows[bi]
			l, err := ablationLayout(&opts, sh, b, vi)
			if err != nil {
				return err
			}
			mr, err := scoreLayouts(cache.PaperConfig, b, []*program.Layout{l}, sh)
			if err != nil {
				return err
			}
			fields := []*float64{&row.Full, &row.NoChunking, &row.QHalf, &row.QDouble, &row.PHWithTRG}
			*fields[vi] = mr[0]
			return nil
		})
	if err != nil {
		return nil, err
	}
	return &AblationsResult{Rows: rows}, nil
}

// ablationLayout places and checks b's layout for variant vi, in
// AblationRow's field order: the store's GBSC layout, GBSC from a TRG built
// with one change to the stored TRG's options, and PH driven by
// TRG_select.
func ablationLayout(opts *Options, sh *telemetry.Shard, b *bench, vi int) (*program.Layout, error) {
	prog := b.pair.Bench.Prog
	o := trg.Options{CacheBytes: cache.PaperConfig.SizeBytes, Popular: b.pop}
	switch vi {
	case 0:
		ls, err := opts.Store.layouts(sh, b, cache.PaperConfig, AlgGBSC)
		if err != nil {
			return nil, err
		}
		return ls[0], nil
	case 1:
		for _, pr := range prog.Procs {
			o.ChunkSize = max(o.ChunkSize, pr.Size)
		}
	case 2:
		o.QFactor = 1
	case 3:
		o.QFactor = 4
	case 4:
		l, err := baseline.PHLayout(prog, b.trgRes.Select)
		if err != nil {
			return nil, err
		}
		if err := checkPacked(b.pair.Bench.Name+"/ph+trg", prog, l); err != nil {
			return nil, err
		}
		return l, nil
	}
	context := b.pair.Bench.Name + "/ablation-gbsc"
	r, _, err := buildTRG(context, prog, b.train, o)
	if err != nil {
		return nil, err
	}
	l, err := core.Place(prog, r, b.pop, cache.PaperConfig)
	if err != nil {
		return nil, err
	}
	if err := checkAligned(context, prog, l, b.pop, cache.PaperConfig); err != nil {
		return nil, err
	}
	return l, nil
}

// Render prints the ablation table.
func (r *AblationsResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "== GBSC design-choice ablations ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tfull\tno chunking\tQ=1x\tQ=4x\tPH+TRG")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
			row.Name, pct(row.Full), pct(row.NoChunking), pct(row.QHalf), pct(row.QDouble), pct(row.PHWithTRG))
	}
	return tw.Flush()
}
