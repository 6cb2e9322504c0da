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
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/perturb"
	"repro/internal/popular"
	"repro/internal/sample"
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
// the per-layout unit of work the sampling study repeats per cell.
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

// BenchmarkTRGBuildSerial runs one TRG build per iteration over the
// paper-scale vortex training trace (the suite's largest), with the
// popularity filter the real pipeline applies, and reports ingest
// throughput as events/sec (the BENCH_trg.json headline metric).
func BenchmarkTRGBuildSerial(b *testing.B) {
	pair, tr := vortexTraining(b)
	opts := trg.Options{
		CacheBytes: cache.PaperConfig.SizeBytes,
		Popular:    popular.Select(pair.Bench.Prog, tr, popular.Options{}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trg.BuildWithStats(pair.Bench.Prog, tr, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkTRGBuildSuite builds both TRGs of all six paper-scale training
// traces per iteration, each with its popular set at the paper's 8 KB
// cache: the builds perfbench's place pass makes. It reports ingest
// throughput as events/sec over the six traces.
func BenchmarkTRGBuildSuite(b *testing.B) {
	ins := suiteTraining()
	opts := make([]trg.Options, len(ins))
	events := 0
	for i, in := range ins {
		opts[i] = trg.Options{
			CacheBytes: cache.PaperConfig.SizeBytes,
			Popular:    popular.Select(in.pair.Bench.Prog, in.tr, popular.Options{}),
		}
		events += in.tr.Len()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, in := range ins {
			res, err := trg.Build(in.pair.Bench.Prog, in.tr, opts[j])
			if err != nil {
				b.Fatal(err)
			}
			graphSink = res.Place
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkTraceDecode decodes the binary encodings of the six paper-scale
// training traces per iteration, as cmd/layout reads a profile and
// perfbench's place pass decodes its inputs, and reports events/sec.
func BenchmarkTraceDecode(b *testing.B) {
	var encs [][]byte
	events := 0
	for _, in := range suiteTraining() {
		var buf bytes.Buffer
		if err := in.tr.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		encs = append(encs, buf.Bytes())
		events += in.tr.Len()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, enc := range encs {
			tr, err := trace.ReadBinary(bytes.NewReader(enc))
			if err != nil {
				b.Fatal(err)
			}
			traceSink = tr
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// traceSink keeps the decoded traces live.
var traceSink *trace.Trace

// trainingInput is one suite benchmark with its paper-scale training trace.
type trainingInput struct {
	pair *tracegen.Pair
	tr   *trace.Trace
}

// suiteTraining generates the six paper-scale (-scale 1.0) training traces
// once per test binary, for the benchmarks that read all of them.
var suiteTraining = sync.OnceValue(func() []trainingInput {
	var ins []trainingInput
	for _, pair := range tracegen.Suite(1.0) {
		ins = append(ins, trainingInput{pair: pair, tr: pair.Bench.Trace(pair.Train)})
	}
	return ins
})

// vortexTraining returns the paper-scale (-scale 1.0) vortex benchmark and
// its training trace, the suite's largest.
func vortexTraining(b *testing.B) (*tracegen.Pair, *trace.Trace) {
	b.Helper()
	pair := tracegen.Lookup(tracegen.Suite(1.0), "vortex")
	if pair == nil {
		b.Fatal("unknown benchmark vortex")
	}
	return pair, pair.Bench.Trace(pair.Train)
}

// BenchmarkWCGBuild builds both WCGs of the paper-scale vortex training
// trace, the full one (PH's input) and the popular-filtered one (HKC's), as
// the experiments' prepare step does.
func BenchmarkWCGBuild(b *testing.B) {
	pair, tr := vortexTraining(b)
	pop := popular.Select(pair.Bench.Prog, tr, popular.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphSink = wcg.Build(tr)
		graphSink = wcg.BuildFiltered(tr, pop.Contains)
	}
}

// BenchmarkPerturbGraph draws one perturbed copy of the paper-scale vortex
// TRG_place, the largest graph a Figure 5 run perturbs.
func BenchmarkPerturbGraph(b *testing.B) {
	pair, tr := vortexTraining(b)
	res, err := trg.Build(pair.Bench.Prog, tr, trg.Options{
		CacheBytes: cache.PaperConfig.SizeBytes,
		Popular:    popular.Select(pair.Bench.Prog, tr, popular.Options{}),
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphSink = perturb.Graph(res.Place, perturb.DefaultScale, rng)
	}
}

// graphSink keeps the benchmarked graphs live.
var graphSink *graph.Graph

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

// --- Multi-layout replay (internal/cache BatchSim) -------------------------

// batchReplayFixture builds the multi-layout scoring workload: the m88ksim
// testing trace compiled once, plus 16 perturbed variants of the GBSC
// placement — the candidate panel a Figure 5 run scores against one trace
// (placed layouts from jittered profiles, all scored on the same testing
// trace).
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
// time: 16 independent walks of the compiled trace through one reused
// simulator, reported as layout·events/sec.
func BenchmarkRunCompiledSerial16(b *testing.B) {
	cfg, ct, layouts := batchReplayFixture(b)
	runPanel(b, cfg, ct, layouts)
}

// BenchmarkRunCompiledLRU16 is BenchmarkRunCompiledSerial16 on the 8 KB
// 2-way LRU cache of Section 6: the same panel and trace through the LRU
// walk, reported as layout·events/sec.
func BenchmarkRunCompiledLRU16(b *testing.B) {
	_, ct, layouts := batchReplayFixture(b)
	runPanel(b, cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 2}, ct, layouts)
}

// paperWalkFixture compiles perl's paper-scale (-scale 1.0) testing trace
// once and places its PH, HKC and GBSC layouts from the training profile:
// the unperturbed layouts of perl's Figure 5 panel. Perl's walks are more
// than half of a Figure 5 run's walk time, and unlike m88ksim's they spend
// most of their time walking spans rather than settling resident classes.
func paperWalkFixture(b *testing.B) (*cache.CompiledTrace, []*Layout) {
	b.Helper()
	art := prepareArtifacts(b, "perl", 1.0)
	prog := art.pair.Bench.Prog
	ph, err := baseline.PHLayout(prog, wcg.Build(art.tr))
	if err != nil {
		b.Fatal(err)
	}
	hkc, err := baseline.HKC(prog, wcg.BuildFiltered(art.tr, art.pop.Contains), art.pop, cache.PaperConfig)
	if err != nil {
		b.Fatal(err)
	}
	gbsc, err := core.Place(prog, art.res, art.pop, cache.PaperConfig)
	if err != nil {
		b.Fatal(err)
	}
	return cache.CompileTrace(prog, art.pair.Bench.Trace(art.pair.Test)), []*Layout{ph, hkc, gbsc}
}

// BenchmarkRunCompiledPaperDM scores perl's paper-scale PH, HKC and GBSC
// layouts on the 8 KB direct-mapped cache, one walk each per iteration,
// reported as layout·events/sec.
func BenchmarkRunCompiledPaperDM(b *testing.B) {
	ct, layouts := paperWalkFixture(b)
	runPanel(b, cache.PaperConfig, ct, layouts)
}

// BenchmarkRunCompiledPaperLRU is BenchmarkRunCompiledPaperDM on the 8 KB
// 2-way LRU cache of Section 6.
func BenchmarkRunCompiledPaperLRU(b *testing.B) {
	ct, layouts := paperWalkFixture(b)
	runPanel(b, cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 2}, ct, layouts)
}

// runPanel times b.N rounds of scoring every layout of the panel against
// ct through one reused simulator of geometry cfg.
func runPanel(b *testing.B, cfg cache.Config, ct *cache.CompiledTrace, layouts []*Layout) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ids)
		q.Touch(ids[j], sizes[j], nil)
	}
}
