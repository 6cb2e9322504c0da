package repro

// Benchmark harness: one testing.B benchmark per table/figure of the paper
// plus the Section 4.4 runtime claims. Run with:
//
//	go test -bench=. -benchmem
//
// The table/figure benches execute the same code paths as
// cmd/experiments at a reduced scale, so -bench serves as the smoke
// regeneration of the paper's evaluation; use cmd/experiments for the
// full-scale numbers recorded in EXPERIMENTS.md.

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/popular"
	"repro/internal/sample"
	"repro/internal/staticcache"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/trg"
	"repro/internal/wcg"
)

// benchOpts is the reduced scale used for benchmark iterations.
func benchOpts(benches ...string) experiments.Options {
	return experiments.Options{Scale: 0.1, Runs: 3, Seed: 1, Benchmarks: benches}
}

// BenchmarkTable1 regenerates the benchmark-details table (Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchOpts("perl", "m88ksim")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the randomized-profile miss-rate
// distributions (Figure 5) for one benchmark.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(benchOpts("m88ksim")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates the conflict-metric correlation study
// (Figure 6).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(experiments.Options{Scale: 0.1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaddingSensitivity regenerates the Section 5.1 padding
// demonstration.
func BenchmarkPaddingSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Padding(benchOpts("perl")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSameInput regenerates the Section 5.3 train==test comparison.
func BenchmarkSameInput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SameInput(benchOpts("m88ksim")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetAssoc regenerates the Section 6 two-way comparison.
func BenchmarkSetAssoc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SetAssoc(benchOpts("m88ksim")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations regenerates the design-choice ablation table.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(benchOpts("m88ksim")); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sampled evaluation (internal/sample) ---------------------------------

// BenchmarkSampledFigure5 regenerates the Figure 5 grid through the
// phase-aware sampled estimator instead of exact replay; compared against
// BenchmarkFigure5 it is the sampled-speedup headline of BENCH_sample.json.
func BenchmarkSampledFigure5(b *testing.B) {
	opts := benchOpts("m88ksim")
	opts.Sample = true
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplePlan times window-plan construction — the signature scan
// plus k-means phase clustering — on the perl training trace. The plan is
// built once per (benchmark, trace) and amortized across every layout.
func BenchmarkSamplePlan(b *testing.B) {
	pair := tracegen.Lookup(tracegen.Suite(0.3), "perl")
	tr := pair.Bench.Trace(pair.Train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sample.NewPlan(pair.Bench.Prog, tr, cache.PaperConfig.LineBytes, sample.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// sampleEvalFixture prepares the paper-scale (-scale 1.0) perl test trace
// for the per-layout evaluation benchmarks: the sampled-vs-exact speedup
// acceptance is measured on this pair, replay against replay, with trace
// compilation and window planning amortized outside both timed loops.
func sampleEvalFixture(b *testing.B) (*cache.CompiledTrace, *sample.Evaluator, *Layout, *cache.Sim) {
	b.Helper()
	pair := tracegen.Lookup(tracegen.Suite(1.0), "perl")
	tr := pair.Bench.Trace(pair.Test)
	plan, err := sample.NewPlan(pair.Bench.Prog, tr, cache.PaperConfig.LineBytes, sample.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ct := cache.CompileTrace(pair.Bench.Prog, tr)
	return ct, sample.NewEvaluator(ct, plan), DefaultLayout(pair.Bench.Prog), cache.MustNewSim(cache.PaperConfig)
}

// BenchmarkExactMissRate times one exact compiled replay of the scale-1.0
// trace against a fixed layout — the per-layout cost the sampled estimator
// competes with (acceptance: sampled ≥ 10× faster than this).
func BenchmarkExactMissRate(b *testing.B) {
	ct, _, layout, sim := sampleEvalFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := sim.RunCompiled(ct, layout)
		if st.Refs == 0 {
			b.Fatal("empty replay")
		}
	}
}

// BenchmarkSampledMissRate times one sampled estimate on the same fixture —
// the per-layout unit of work the sampled Figure 5 grid repeats per run.
func BenchmarkSampledMissRate(b *testing.B) {
	_, ev, layout, _ := sampleEvalFixture(b)
	bs := cache.MustNewBatchSim(cache.PaperConfig)
	layouts := []*Layout{layout}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ests, err := ev.MissRateBatch(bs, layouts)
		if err != nil {
			b.Fatal(err)
		}
		if ests[0].RefsReplayed == 0 {
			b.Fatal("empty sampled replay")
		}
	}
}

// --- Static must/may bounds (internal/staticcache) ------------------------

// staticFixture prepares the perl test trace and its static model for the
// bounds benchmarks: model construction is per (program, trace, geometry)
// and amortized across layouts, exactly like trace compilation.
func staticFixture(b *testing.B) (*staticcache.Model, *Layout, *cache.CompiledTrace, *cache.Sim) {
	b.Helper()
	pair := tracegen.Lookup(tracegen.Suite(0.3), "perl")
	tr := pair.Bench.Trace(pair.Test)
	model, err := staticcache.NewModel(pair.Bench.Prog, tr, cache.PaperConfig)
	if err != nil {
		b.Fatal(err)
	}
	ct := cache.CompileTrace(pair.Bench.Prog, tr)
	return model, DefaultLayout(pair.Bench.Prog), ct, cache.MustNewSim(cache.PaperConfig)
}

// BenchmarkStaticModel times activation-class graph construction — the
// one-off cost a layout sweep pays before Analyze screens candidates.
func BenchmarkStaticModel(b *testing.B) {
	pair := tracegen.Lookup(tracegen.Suite(0.3), "perl")
	tr := pair.Bench.Trace(pair.Test)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := staticcache.NewModel(pair.Bench.Prog, tr, cache.PaperConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticAnalyze times one per-layout fixpoint analysis — the
// screening cost a sweep pays instead of a replay for pruned candidates.
func BenchmarkStaticAnalyze(b *testing.B) {
	model, layout, _, _ := staticFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv := model.Analyze(layout)
		if iv.Refs == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkStaticExactReplay times the exact compiled replay of the same
// (trace, layout) pair — the per-candidate cost Analyze competes with in
// BENCH_static.json.
func BenchmarkStaticExactReplay(b *testing.B) {
	_, layout, ct, sim := staticFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := sim.RunCompiled(ct, layout)
		if st.Refs == 0 {
			b.Fatal("empty replay")
		}
	}
}

// BenchmarkStaticBoundsGrid regenerates the staticbounds experiment end to
// end (suite prep, per-benchmark models, per-cell analysis + exact replay
// with the soundness cross-check).
func BenchmarkStaticBoundsGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StaticBounds(benchOpts("m88ksim")); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 4.4: placement algorithm runtime -----------------------------

// benchArtifacts prepares a benchmark's training trace, popularity set and
// TRG once, outside the timed loop.
type benchArtifacts struct {
	pair *tracegen.Pair
	tr   *trace.Trace
	pop  *popular.Set
	res  *trg.Result
}

func prepareArtifacts(b *testing.B, name string, scale float64) *benchArtifacts {
	b.Helper()
	pair := tracegen.Lookup(tracegen.Suite(scale), name)
	if pair == nil {
		b.Fatalf("unknown benchmark %s", name)
	}
	tr := pair.Bench.Trace(pair.Train)
	pop := popular.Select(pair.Bench.Prog, tr, popular.Options{})
	res, err := trg.Build(pair.Bench.Prog, tr, trg.Options{
		CacheBytes: cache.PaperConfig.SizeBytes,
		Popular:    pop,
	})
	if err != nil {
		b.Fatal(err)
	}
	return &benchArtifacts{pair: pair, tr: tr, pop: pop, res: res}
}

// BenchmarkGBSCPlacement times the full GBSC merge + linearize phase on the
// vortex benchmark (P≈120 popular procedures, C=256 lines), the regime of
// the paper's Section 4.4 runtime discussion.
func BenchmarkGBSCPlacement(b *testing.B) {
	art := prepareArtifacts(b, "vortex", 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Place(art.pair.Bench.Prog, art.res, art.pop, cache.PaperConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeNodes times just the merging phase via Assign.
func BenchmarkMergeNodes(b *testing.B) {
	art := prepareArtifacts(b, "m88ksim", 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Assign(art.pair.Bench.Prog, art.res, art.pop, cache.PaperConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeaviestEdge times the indexed heaviest-edge selector by
// draining a dense random working graph with the exact select+merge access
// pattern of the PH and GBSC loops (one drain per iteration; the clone is
// excluded from the timing).
func BenchmarkHeaviestEdge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := graph.New()
	const nodes = 256
	for i := 0; i < 4096; i++ {
		u, v := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))
		if u != v {
			base.AddEdgeWeight(u, v, int64(rng.Intn(1000)+1))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := base.Clone()
		b.StartTimer()
		for {
			e, ok := g.HeaviestEdge()
			if !ok {
				break
			}
			g.MergeNodes(e.U, e.V)
		}
	}
}

// BenchmarkTRGBuild times TRG_select/TRG_place construction per trace event.
func BenchmarkTRGBuild(b *testing.B) {
	pair := tracegen.Lookup(tracegen.Suite(0.3), "perl")
	tr := pair.Bench.Trace(pair.Train)
	pop := popular.Select(pair.Bench.Prog, tr, popular.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trg.Build(pair.Bench.Prog, tr, trg.Options{
			CacheBytes: cache.PaperConfig.SizeBytes,
			Popular:    pop,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// trgIngestFixture prepares the paper-scale workload for the TRG ingest
// throughput benchmarks: the full vortex training trace (the suite's
// largest), with the popularity filter the real pipeline applies.
func trgIngestFixture(b *testing.B) (*Program, *Trace, trg.Options) {
	b.Helper()
	pair := tracegen.Lookup(tracegen.Suite(1.0), "vortex")
	if pair == nil {
		b.Fatal("unknown benchmark vortex")
	}
	tr := pair.Bench.Trace(pair.Train)
	pop := popular.Select(pair.Bench.Prog, tr, popular.Options{})
	return pair.Bench.Prog, tr, trg.Options{
		CacheBytes: cache.PaperConfig.SizeBytes,
		Popular:    pop,
	}
}

// benchTRGIngest runs one TRG build per iteration and reports ingest
// throughput as events/sec (the BENCH_trg.json headline metric).
func benchTRGIngest(b *testing.B, shards int) {
	prog, tr, opts := trgIngestFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if shards <= 1 {
			_, _, err = trg.BuildWithStats(prog, tr, opts)
		} else {
			_, _, err = trg.BuildSharded(prog, tr, opts, trg.ShardOptions{Shards: shards})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkTRGBuildSerial is the serial-ingest baseline for BENCH_trg.json.
func BenchmarkTRGBuildSerial(b *testing.B) { benchTRGIngest(b, 1) }

// BenchmarkTRGBuildSharded8 is the sharded ingest path at 8 shards; the
// acceptance bar is ≥2× the serial events/sec on this workload.
func BenchmarkTRGBuildSharded8(b *testing.B) { benchTRGIngest(b, 8) }

// --- Incremental re-placement (internal/incr) -----------------------------

// incrFixture prepares the drifted-profile pair for the incremental
// benchmarks: the paper-scale perl training TRG as the placed baseline,
// drifted by appending the first 1% of the testing trace — the same drift
// model as the driftreplace experiment, in the regime (≈2% weight mass,
// within the ≤5% acceptance window) where the recorded pop sequence
// survives the drift. Both deltas (forward and inverse) are computed up
// front so each timed Update is a pure engine operation.
func incrFixture(b *testing.B) (*Program, *trg.Result, *trg.Result, trg.Delta, trg.Delta, *popular.Set) {
	b.Helper()
	pair := tracegen.Lookup(tracegen.Suite(1.0), "perl")
	if pair == nil {
		b.Fatal("unknown benchmark perl")
	}
	oldTr := pair.Bench.Trace(pair.Train)
	extra := pair.Bench.Trace(pair.Test)
	newTr := &trace.Trace{Events: append([]trace.Event(nil), oldTr.Events...)}
	newTr.Events = append(newTr.Events, extra.Events[:len(extra.Events)/100]...)

	pop := popular.Select(pair.Bench.Prog, oldTr, popular.Options{})
	opts := trg.Options{CacheBytes: cache.PaperConfig.SizeBytes, Popular: pop}
	oldRes, err := trg.Build(pair.Bench.Prog, oldTr, opts)
	if err != nil {
		b.Fatal(err)
	}
	newRes, err := trg.Build(pair.Bench.Prog, newTr, opts)
	if err != nil {
		b.Fatal(err)
	}
	fwd, err := trg.Diff(oldRes, newRes)
	if err != nil {
		b.Fatal(err)
	}
	inv, err := trg.Diff(newRes, oldRes)
	if err != nil {
		b.Fatal(err)
	}
	var mass, total int64
	for _, wd := range fwd.Select {
		if wd.DW < 0 {
			mass -= wd.DW
		} else {
			mass += wd.DW
		}
	}
	total = oldRes.Select.TotalWeight()
	b.ReportMetric(100*float64(mass)/float64(total), "drift%")
	return pair.Bench.Prog, oldRes, newRes, fwd, inv, pop
}

// BenchmarkIncrementalReplace times one delta-driven engine Update on the
// ~2%-mass drifted perl profile, alternating the forward and inverse deltas
// so the engine state is identical every other iteration. Its speedup over
// BenchmarkScratchReplace is the BENCH_incr.json headline (acceptance: ≥5×
// at ≤5% drift).
func BenchmarkIncrementalReplace(b *testing.B) {
	prog, oldRes, _, fwd, inv, pop := incrFixture(b)
	eng, err := incr.New(prog, oldRes.Clone(), pop, cache.PaperConfig)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := fwd
		if i%2 == 1 {
			d = inv
		}
		if _, err := eng.Update(d); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := eng.Stats()
	if merges := st.MergesReused + st.MergesReplayed; merges > 0 {
		b.ReportMetric(100*float64(st.MergesReused)/float64(merges), "reuse%")
	}
}

// BenchmarkScratchReplace times the from-scratch GBSC placement of the
// drifted profile — the cost the incremental path replaces.
func BenchmarkScratchReplace(b *testing.B) {
	prog, _, newRes, _, _, pop := incrFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Place(prog, newRes, pop, cache.PaperConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPHPlacement times the Pettis & Hansen baseline.
func BenchmarkPHPlacement(b *testing.B) {
	pair := tracegen.Lookup(tracegen.Suite(0.3), "perl")
	tr := pair.Bench.Trace(pair.Train)
	g := wcg.Build(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.PHLayout(pair.Bench.Prog, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHKCPlacement times the cache-line-coloring baseline.
func BenchmarkHKCPlacement(b *testing.B) {
	pair := tracegen.Lookup(tracegen.Suite(0.3), "perl")
	tr := pair.Bench.Trace(pair.Train)
	pop := popular.Select(pair.Bench.Prog, tr, popular.Options{})
	g := wcg.BuildFiltered(tr, pop.Contains)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.HKC(pair.Bench.Prog, g, pop, cache.PaperConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// replayFixture builds the repeat-heavy synthetic workload for the trace
// replay benchmarks: many small procedures activated with large repeat
// counts, the regime where the Section 5.1 perturbation sweeps and the
// Figure 5/6 grids spend their wall-clock. Spans are small relative to the
// cache, so a collapsing engine can account iterations 2..r in O(1).
func replayFixture() (*Program, *Layout, *Trace) {
	rng := rand.New(rand.NewSource(7))
	procs := make([]Procedure, 200)
	for i := range procs {
		procs[i] = Procedure{
			Name: "p" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676)),
			Size: 32 + rng.Intn(480),
		}
	}
	prog, err := NewProgram(procs)
	if err != nil {
		panic(err)
	}
	tr := &Trace{}
	for i := 0; i < 20_000; i++ {
		tr.Append(Event{
			Proc:   ProcID(rng.Intn(len(procs))),
			Extent: int32(rng.Intn(256)),    // 0 means the full procedure
			Repeat: int32(1 + rng.Intn(63)), // loop-heavy activations
		})
	}
	return prog, DefaultLayout(prog), tr
}

// BenchmarkRunTrace times one full replay of the repeat-heavy suite against
// a fixed layout through the reusable-simulator path the experiment
// drivers use (one Sim, Reset per layout).
func BenchmarkRunTrace(b *testing.B) {
	prog, layout, tr := replayFixture()
	_ = prog
	sim := cache.MustNewSim(cache.PaperConfig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := sim.RunTrace(layout, tr)
		if st.Refs == 0 {
			b.Fatal("empty replay")
		}
	}
}

// BenchmarkRunTraceClassified times the classifying replay (simulated cache
// plus fully-associative shadow) on the same workload.
func BenchmarkRunTraceClassified(b *testing.B) {
	_, layout, tr := replayFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := cache.RunTraceClassified(cache.PaperConfig, layout, tr)
		if err != nil {
			b.Fatal(err)
		}
		if cs.Refs == 0 {
			b.Fatal("empty replay")
		}
	}
}

// BenchmarkCompileTrace times the per-(program, trace) precompilation the
// replay engine amortizes across layouts: the full extent/repeat
// resolution of the 20k-event fixture.
func BenchmarkCompileTrace(b *testing.B) {
	prog, _, tr := replayFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := cache.CompileTrace(prog, tr)
		if ct.Len() != len(tr.Events) {
			b.Fatal("short compilation")
		}
	}
}

// --- Layout-batched replay (internal/cache BatchSim) -----------------------

// batchReplayFixture builds the multi-layout scoring workload for the
// batched-replay benchmarks: the m88ksim testing trace compiled once, plus
// 16 perturbed variants of the GBSC placement — the candidate panel a
// Figure 5 run scores against one trace (placed layouts from jittered
// profiles, all scored on the same testing trace).
func batchReplayFixture(b *testing.B) (cache.Config, *cache.CompiledTrace, []*Layout) {
	b.Helper()
	art := prepareArtifacts(b, "m88ksim", 0.3)
	prog := art.pair.Bench.Prog
	layout, err := core.Place(prog, art.res, art.pop, cache.PaperConfig)
	if err != nil {
		b.Fatal(err)
	}
	tr := art.pair.Bench.Trace(art.pair.Test)
	ct := cache.CompileTrace(prog, tr)
	rng := rand.New(rand.NewSource(11))
	layouts := make([]*Layout, 16)
	layouts[0] = layout
	for i := 1; i < len(layouts); i++ {
		l := layout.Clone()
		p := ProcID(rng.Intn(prog.NumProcs()))
		l.SetAddr(p, l.Addr(p)+32*(1+rng.Intn(8)))
		layouts[i] = l
	}
	return cache.PaperConfig, ct, layouts
}

// BenchmarkRunCompiledSerial16 scores the 16-layout panel one layout at a
// time: 16 independent one-lane walks of the compiled trace through one
// reused simulator. The layout·events/sec metric is the BENCH_batch.json
// baseline.
func BenchmarkRunCompiledSerial16(b *testing.B) {
	cfg, ct, layouts := batchReplayFixture(b)
	sim := cache.MustNewSim(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range layouts {
			st := sim.RunCompiled(ct, l)
			if st.Refs == 0 {
				b.Fatal("empty replay")
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(layouts))*float64(ct.Len())*float64(b.N)/b.Elapsed().Seconds(), "layout·events/sec")
}

// BenchmarkRunCompiledBatch16 scores the same panel in one walk of the
// compiled trace with 16 interleaved cache states, layout compilation
// included in the timed loop (acceptance: ≥3× the serial layout·events/sec).
func BenchmarkRunCompiledBatch16(b *testing.B) {
	cfg, ct, layouts := batchReplayFixture(b)
	bs := cache.MustNewBatchSim(cfg)
	tables := make([]*cache.CompiledLayout, len(layouts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		for k, l := range layouts {
			if tables[k], err = cache.CompileLayout(cfg, ct, l); err != nil {
				b.Fatal(err)
			}
		}
		res, err := bs.Run(ct, tables, cache.BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats[0].Refs == 0 {
			b.Fatal("empty replay")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(layouts))*float64(ct.Len())*float64(b.N)/b.Elapsed().Seconds(), "layout·events/sec")
}

// BenchmarkCacheSim times the trace-driven simulator in refs/op terms.
func BenchmarkCacheSim(b *testing.B) {
	pair := tracegen.Lookup(tracegen.Suite(0.3), "perl")
	tr := pair.Bench.Trace(pair.Train)
	layout := DefaultLayout(pair.Bench.Prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.RunTrace(cache.PaperConfig, layout, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGen times synthetic trace generation.
func BenchmarkTraceGen(b *testing.B) {
	pair := tracegen.Lookup(tracegen.Suite(0.3), "perl")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pair.Bench.Trace(tracegen.Input{Seed: int64(i), Events: 20_000})
	}
}

// BenchmarkQueueTouch times the Q maintenance hot path.
func BenchmarkQueueTouch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ids := make([]trg.BlockID, 4096)
	sizes := make([]int, 4096)
	for i := range ids {
		ids[i] = trg.BlockID(rng.Intn(500))
		sizes[i] = rng.Intn(2000) + 64
	}
	q := trg.NewQueue(16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ids)
		q.Touch(ids[j], sizes[j], nil)
	}
}
