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
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/trg"
	"repro/internal/wcg"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies the suite trace lengths (see tracegen.Suite).
	// Default 1.0; the checked-in EXPERIMENTS.md was produced at 1.0.
	Scale float64
	// Cache is the simulated instruction cache. Default 8 KB direct-mapped
	// with 32-byte lines, as in the paper.
	Cache cache.Config
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
}

func (o *Options) setDefaults() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Cache == (cache.Config{}) {
		o.Cache = cache.PaperConfig
	}
	if o.Runs == 0 {
		o.Runs = 40
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// suite resolves the benchmark filter against the generated suite. Unknown
// names are an error rather than a silent omission: a typo in a -bench flag
// must not quietly shrink the evaluated suite.
func (o *Options) suite() ([]*tracegen.Pair, error) {
	pairs := tracegen.Suite(o.Scale)
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
	_, err := o.suite()
	return err
}

// prepareSuite resolves the filtered suite and prepares every benchmark,
// fanning the (expensive) per-benchmark trace generation and graph builds
// across par workers. benches[i] corresponds to pairs[i].
func (o *Options) prepareSuite(cfg cache.Config, par int) (pairs []*tracegen.Pair, benches []*bench, err error) {
	pairs, err = o.suite()
	if err != nil {
		return nil, nil, err
	}
	benches = make([]*bench, len(pairs))
	err = runParallel(par, len(pairs),
		func() *telemetry.Shard { return o.Telemetry.Shard() },
		func(sh *telemetry.Shard, i int) error {
			b, err := prepare(pairs[i], cfg, sh)
			if err != nil {
				return err
			}
			benches[i] = b
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	return pairs, benches, nil
}

// bench is the fully prepared per-benchmark state shared by experiments.
type bench struct {
	pair  *tracegen.Pair
	train *trace.Trace
	test  *trace.Trace
	// ctTrain and ctTest are the traces precompiled for replay (extent and
	// repeat resolution hoisted out of the simulation loop). Every driver
	// that replays a benchmark trace against candidate layouts goes through
	// these shared compilations rather than iterating Events directly.
	ctTrain *cache.CompiledTrace
	ctTest  *cache.CompiledTrace
	pop     *popular.Set
	// wcgFull is the transition graph over all executed procedures (PH's
	// input); wcgPop is restricted to popular procedures (HKC's input).
	wcgFull *graph.Graph
	wcgPop  *graph.Graph
	// trgRes holds TRG_select and TRG_place built from the training trace.
	trgRes *trg.Result
}

// prepare generates traces and builds graphs for one benchmark, recording
// pipeline telemetry into sh (nil-safe). Every recorded counter and
// histogram is a deterministic function of the benchmark, so shard merges
// agree at any worker count. The freshly built TRGs are verified before
// any placement consumes them.
func prepare(pair *tracegen.Pair, cfg cache.Config, sh *telemetry.Shard) (*bench, error) {
	stopPrep := sh.Time("prepare/wall")
	defer stopPrep()
	b := &bench{pair: pair}
	b.train = tracegen.Generate(pair.Bench, pair.Train, sh)
	b.test = tracegen.Generate(pair.Bench, pair.Test, sh)
	b.ctTrain = cache.CompileTrace(pair.Bench.Prog, b.train)
	b.ctTest = cache.CompileTrace(pair.Bench.Prog, b.test)
	b.pop = popular.Select(pair.Bench.Prog, b.train, popular.Options{})
	sh.Add("popular/procs", int64(b.pop.Len()))
	b.wcgFull = wcg.Build(b.train)
	b.wcgPop = wcg.BuildFiltered(b.train, b.pop.Contains)
	sh.Add("wcg/full_edges", int64(b.wcgFull.NumEdges()))
	sh.Add("wcg/popular_edges", int64(b.wcgPop.NumEdges()))
	stopTRG := sh.Time("trg/build_wall")
	res, bs, err := trg.BuildWithStats(pair.Bench.Prog, b.train, trg.Options{
		CacheBytes: cfg.SizeBytes,
		Popular:    b.pop,
	})
	stopTRG()
	if err != nil {
		return nil, fmt.Errorf("experiments: building TRG for %s: %w", pair.Bench.Name, err)
	}
	b.trgRes = res
	vs := invariant.CheckTRG(pair.Bench.Prog, res, bs, b.pop)
	if err := invariant.Error(pair.Bench.Name+"/trg", vs); err != nil {
		return nil, err
	}
	sh.Add("trg/events_observed", bs.Events)
	sh.Add("trg/select_nodes", int64(res.Select.NumNodes()))
	sh.Add("trg/select_edges", int64(res.Select.NumEdges()))
	sh.Add("trg/place_nodes", int64(res.Place.NumNodes()))
	sh.Add("trg/place_edges", int64(res.Place.NumEdges()))
	sh.AddHistogram("trg/q_procs", bs.QLenHist[:], bs.QLenSum, bs.QSteps)
	sh.Observe("trg/q_max_procs", int64(bs.MaxQLen))
	return b, nil
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
