// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5) plus the Section 6 set-associative extension and
// the ablations called out in DESIGN.md. Each experiment is a function
// returning a typed result with a Render method that prints the same rows
// or series the paper reports.
package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies the suite trace lengths (see tracegen.Suite).
	// Default 1.0; the checked-in EXPERIMENTS.md was produced at 1.0.
	Scale float64
	// Runs is the number of perturbed profiles per algorithm in Figure 5.
	// Default 40, as in the paper; Figure5 rejects a negative count.
	Runs int
	// Seed drives perturbation and Figure 6 randomization. Default 1.
	Seed int64
	// Benchmarks restricts the suite by name; empty means all six.
	Benchmarks []string
	// Parallel is the worker count for the experiment grids: 0 (the
	// default) uses one worker per CPU, 1 restores the serial path, and
	// any larger value is used as given. Results are index-addressed, so
	// rendered output is byte-identical at every setting.
	Parallel int
	// Telemetry, when non-nil, receives counters, timers and histograms
	// from the pipeline (trace generation, TRG builds, the GBSC merge
	// loop, cache simulations). Workers record into per-worker shards that
	// merge commutatively, so every deterministic value in a snapshot is
	// identical at any Parallel setting; only wall-clock timers vary. Nil
	// disables instrumentation at zero cost.
	Telemetry *telemetry.Registry
	// Store, when non-nil, serves prepared inputs (traces, profile graphs,
	// TRGs) and the unperturbed default, PH, HKC and GBSC layouts to every
	// call at its scale, so calls that share it build each input and place
	// each layout once. Nil, or a store of another scale, makes the call
	// prepare and place its own. Outputs are identical either way.
	Store *Store
}

func (o *Options) setDefaults() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Runs == 0 {
		o.Runs = 40
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Store == nil || o.Store.scale != o.Scale {
		o.Store = NewStore(o.Scale)
	}
}

// suite resolves the benchmark filter against the store's suite. Unknown
// names are an error rather than a silent omission: a typo in a -bench flag
// must not quietly shrink the evaluated suite.
func (o *Options) suite() ([]*tracegen.Pair, error) {
	pairs := o.Store.pairs
	if len(o.Benchmarks) == 0 {
		return pairs, nil
	}
	var out []*tracegen.Pair
	var unknown []string
	for _, name := range o.Benchmarks {
		if p := tracegen.Lookup(pairs, name); p != nil {
			out = append(out, p)
		} else {
			unknown = append(unknown, strconv.Quote(name))
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("experiments: unknown benchmarks: %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// CheckBenchmarks reports an error naming every Benchmarks entry missing
// from the suite, the check each experiment makes before it runs, so a
// command can reject a -bench typo before it prints or writes anything.
func (o Options) CheckBenchmarks() error {
	o.setDefaults()
	_, err := o.suite()
	return err
}

// scoreLayouts scores layouts on b's testing trace under cfg by exact
// compiled replay, one after another through one compiled simulator, and
// returns their miss rates. It records the cache/* and batch counters into
// sh (nil-safe).
func scoreLayouts(cfg cache.Config, b *bench, layouts []*program.Layout, sh *telemetry.Shard) ([]float64, error) {
	bs, err := cache.NewBatchSim(cfg)
	if err != nil {
		return nil, err
	}
	tables := make([]*cache.CompiledLayout, len(layouts))
	for k, layout := range layouts {
		if tables[k], err = cache.CompileLayout(cfg, b.ctTest, layout); err != nil {
			return nil, err
		}
	}
	res, err := bs.Run(b.ctTest, tables, cache.BatchOptions{})
	if err != nil {
		return nil, err
	}
	mr := make([]float64, len(layouts))
	for k, st := range res.Stats {
		sh.Add("cache/refs", st.Refs)
		sh.Add("cache/misses", st.Misses)
		sh.Add("cache/cold_misses", st.Cold)
		sh.Add("cache/conflict_misses", st.Conflict())
		mr[k] = st.MissRate()
	}
	addBatch(sh, bs.Batch())
	return mr, nil
}

// addBatch records the compiled replay engine's work counters for one or
// more runs into sh (nil-safe). They are a deterministic function of the
// driver's grid (never of worker scheduling), so the counters merge
// identically at any parallelism.
func addBatch(sh *telemetry.Shard, d cache.BatchStats) {
	sh.Add("cache/batch_lanes", d.Lanes)
	sh.Add("cache/batch_abandoned_lanes", d.AbandonedLanes)
	sh.Add("cache/batch_lane_events", d.LaneEvents)
	sh.Add("cache/batch_lane_events_saved", d.LaneEventsSaved)
}

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
