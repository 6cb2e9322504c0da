package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/program"
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
	err = forEach(opts.parallelism(), len(benches)*numVariants, func(i int) error {
		bi, vi := i/numVariants, i%numVariants
		b, prog := benches[bi], benches[bi].pair.Bench.Prog

		// gbscFrom places and scores GBSC from r; gbscAt does so from a TRG
		// built with o's changes to the stored TRG's options.
		gbscFrom := func(r *trg.Result) (float64, error) {
			l, err := core.Place(prog, r, b.pop, cache.PaperConfig)
			if err != nil {
				return 0, err
			}
			if err := checkAligned(rows[bi].Name+"/ablation-gbsc", prog, l, b.pop, cache.PaperConfig); err != nil {
				return 0, err
			}
			return cache.MissRateCompiled(cache.PaperConfig, b.ctTest, l)
		}
		gbscAt := func(o trg.Options) (float64, error) {
			o.CacheBytes, o.Popular = cache.PaperConfig.SizeBytes, b.pop
			r, err := trg.Build(prog, b.train, o)
			if err != nil {
				return 0, err
			}
			return gbscFrom(r)
		}

		var err error
		switch vi {
		case 0:
			rows[bi].Full, err = gbscFrom(b.trgRes)
		case 1:
			maxProc := 0
			for _, pr := range prog.Procs {
				if pr.Size > maxProc {
					maxProc = pr.Size
				}
			}
			rows[bi].NoChunking, err = gbscAt(trg.Options{ChunkSize: maxProc})
		case 2:
			rows[bi].QHalf, err = gbscAt(trg.Options{QFactor: 1})
		case 3:
			rows[bi].QDouble, err = gbscAt(trg.Options{QFactor: 4})
		case 4:
			var phTRG *program.Layout
			if phTRG, err = baseline.PHLayout(prog, b.trgRes.Select); err == nil {
				if err = checkPacked(rows[bi].Name+"/ph+trg", prog, phTRG); err == nil {
					rows[bi].PHWithTRG, err = cache.MissRateCompiled(cache.PaperConfig, b.ctTest, phTRG)
				}
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &AblationsResult{Rows: rows}, nil
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
