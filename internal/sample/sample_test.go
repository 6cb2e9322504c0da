package sample

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/randcell"
	"repro/internal/trace"
)

var testCache = cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}

func testProgram(t testing.TB) *program.Program {
	t.Helper()
	return randcell.Program(rand.New(rand.NewSource(7)), 20)
}

// uniformTrace is phase-free: one hot procedure forever.
func uniformTrace(prog *program.Program, events int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < events; i++ {
		tr.Append(trace.Event{Proc: program.ProcID(i % 2)})
	}
	return tr
}

func mustPlan(t *testing.T, prog *program.Program, tr *trace.Trace, opts Options) *Plan {
	t.Helper()
	p, err := NewPlan(prog, tr, testCache.LineBytes, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// missRate scores one layout through the evaluator on a fresh one-lane
// batch simulator of the test geometry.
func missRate(t *testing.T, ev *Evaluator, layout *program.Layout) Estimate {
	t.Helper()
	ests, err := ev.MissRateBatch(cache.MustNewBatchSim(testCache), []*program.Layout{layout})
	if err != nil {
		t.Fatal(err)
	}
	return ests[0]
}

func checkPlanInvariants(t *testing.T, p *Plan) {
	t.Helper()
	var wsum float64
	prevStart := -1
	for _, w := range p.Windows {
		if w.Start < 0 || w.End > p.TotalEvents || w.Start >= w.End {
			t.Errorf("window [%d,%d) out of range [0,%d)", w.Start, w.End, p.TotalEvents)
		}
		if w.WarmStart < 0 || w.WarmStart > w.Start {
			t.Errorf("warm start %d outside [0,%d]", w.WarmStart, w.Start)
		}
		if w.Start <= prevStart {
			t.Errorf("windows not in trace order: %d after %d", w.Start, prevStart)
		}
		prevStart = w.Start
		wsum += w.Weight
	}
	if len(p.Windows) > 0 && math.Abs(wsum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", wsum)
	}
}

func TestPlanEmptyTrace(t *testing.T) {
	prog := testProgram(t)
	p := mustPlan(t, prog, &trace.Trace{}, Options{})
	if len(p.Windows) != 0 || p.TotalEvents != 0 || p.TotalRefs != 0 {
		t.Fatalf("empty trace plan has windows: %+v", p)
	}
	if p.ReplayFraction() != 0 {
		t.Errorf("empty plan replay fraction %v", p.ReplayFraction())
	}
	ev := NewEvaluator(cache.CompileTrace(prog, &trace.Trace{}), p)
	est := missRate(t, ev, program.DefaultLayout(prog))
	if !est.Exact || est.MissRate != 0 || est.CIHalf != 0 || est.RefsReplayed != 0 {
		t.Errorf("empty trace estimate %+v, want exact zero", est)
	}
}

func TestPlanWindowLongerThanTrace(t *testing.T) {
	prog := testProgram(t)
	tr := uniformTrace(prog, 40)
	// Interval far beyond the trace: a single clamped window must cover it
	// and the estimate must equal the exact simulation.
	p := mustPlan(t, prog, tr, Options{Interval: 100000})
	if len(p.Windows) != 1 || p.Windows[0].Start != 0 || p.Windows[0].End != 40 {
		t.Fatalf("plan windows %+v, want one [0,40)", p.Windows)
	}
	if p.Windows[0].Weight != 1 {
		t.Errorf("single window weight %v, want 1", p.Windows[0].Weight)
	}
	checkPlanInvariants(t, p)

	layout := program.DefaultLayout(prog)
	sim := cache.MustNewSim(testCache)
	exact := sim.RunTrace(layout, tr)
	est := missRate(t, NewEvaluator(cache.CompileTrace(prog, tr), p), layout)
	if !est.Exact {
		t.Errorf("whole-trace window not marked exact: %+v", est)
	}
	if est.CIHalf != 0 {
		t.Errorf("exact estimate has nonzero CI half-width %v", est.CIHalf)
	}
	if est.MissRate != exact.MissRate() {
		t.Errorf("exact-window estimate %v != oracle %v", est.MissRate, exact.MissRate())
	}
	if est.RefsReplayed != exact.Refs {
		t.Errorf("refs replayed %d != oracle refs %d", est.RefsReplayed, exact.Refs)
	}
}

func TestSingleMidTraceWindowIsVacuous(t *testing.T) {
	prog := testProgram(t)
	tr := randcell.PhasedTrace(rand.New(rand.NewSource(3)), prog, 4000)
	p := mustPlan(t, prog, tr, Options{Windows: 1, Interval: 128})
	if len(p.Windows) != 1 {
		t.Fatalf("got %d windows, want 1", len(p.Windows))
	}
	est := missRate(t, NewEvaluator(cache.CompileTrace(prog, tr), p), program.DefaultLayout(prog))
	if est.Exact {
		t.Error("mid-trace window marked exact")
	}
	if est.CIHalf != 1 {
		t.Errorf("single mid-trace window CI half-width %v, want vacuous 1", est.CIHalf)
	}
	if lo, hi := est.Interval(); lo != 0 || hi != 1 {
		t.Errorf("vacuous interval [%v,%v], want [0,1]", lo, hi)
	}
	if !est.Covers(0.42) {
		t.Error("vacuous interval must cover everything")
	}
}

func TestAllRepeatsTrace(t *testing.T) {
	// Every activation loops hard (the PR 5 collapsing regime): the
	// estimator must stay accurate and weights must account repeats.
	prog := testProgram(t)
	rng := rand.New(rand.NewSource(9))
	tr := &trace.Trace{}
	for i := 0; i < 6000; i++ {
		p := program.ProcID(rng.Intn(prog.NumProcs()))
		tr.Append(trace.Event{Proc: p, Repeat: int32(50 + rng.Intn(50))})
	}
	p := mustPlan(t, prog, tr, Options{})
	checkPlanInvariants(t, p)
	if p.TotalRefs <= int64(tr.Len()) {
		t.Fatalf("total refs %d ignore repeats", p.TotalRefs)
	}
	if want := tr.NumLineRefs(prog, testCache.LineBytes); p.TotalRefs != want {
		t.Errorf("plan total refs %d != trace line refs %d", p.TotalRefs, want)
	}
	layout := program.DefaultLayout(prog)
	sim := cache.MustNewSim(testCache)
	exact := sim.RunTrace(layout, tr).MissRate()
	est := missRate(t, NewEvaluator(cache.CompileTrace(prog, tr), p), layout)
	if err := math.Abs(est.MissRate - exact); err > 0.01 {
		t.Errorf("all-repeats estimate %.4f vs exact %.4f: |err| %.4f > 1pp", est.MissRate, exact, err)
	}
	if !est.Covers(exact) {
		t.Errorf("interval ±%.4f around %.4f misses exact %.4f", est.CIHalf, est.MissRate, exact)
	}
}

func TestSystematicFallbackOnPhaseFreeTrace(t *testing.T) {
	prog := testProgram(t)
	tr := uniformTrace(prog, 20000)
	p := mustPlan(t, prog, tr, Options{})
	if p.Clustered {
		t.Error("phase-free trace selected the clustering path")
	}
	checkPlanInvariants(t, p)
	if len(p.Windows) != DefaultWindows {
		t.Errorf("got %d windows, want %d", len(p.Windows), DefaultWindows)
	}
	// Systematic selection must spread representatives across the trace.
	if first, last := p.Windows[0], p.Windows[len(p.Windows)-1]; last.Start-first.Start < p.TotalEvents/2 {
		t.Errorf("representatives clumped: first %d last %d of %d", first.Start, last.Start, p.TotalEvents)
	}
}

func TestClusteringSelectsPhases(t *testing.T) {
	prog := testProgram(t)
	tr := randcell.PhasedTrace(rand.New(rand.NewSource(5)), prog, 20000)
	p := mustPlan(t, prog, tr, Options{})
	if !p.Clustered {
		t.Fatal("phased trace fell back to systematic selection")
	}
	checkPlanInvariants(t, p)
	if len(p.Windows) < 2 || len(p.Windows) > DefaultWindows {
		t.Errorf("got %d windows, want 2..%d", len(p.Windows), DefaultWindows)
	}
	if p.ReplayFraction() >= 0.5 {
		t.Errorf("replay fraction %.2f not a saving", p.ReplayFraction())
	}

	layout := program.DefaultLayout(prog)
	sim := cache.MustNewSim(testCache)
	exact := sim.RunTrace(layout, tr).MissRate()
	est := missRate(t, NewEvaluator(cache.CompileTrace(prog, tr), p), layout)
	if err := math.Abs(est.MissRate - exact); err > 0.01 {
		t.Errorf("phased estimate %.4f vs exact %.4f: |err| %.4f > 1pp", est.MissRate, exact, err)
	}
	if !est.Covers(exact) {
		t.Errorf("interval ±%.4f around %.4f misses exact %.4f", est.CIHalf, est.MissRate, exact)
	}
	if est.EventsReplayed != p.EventsReplayed() {
		t.Errorf("estimate replayed %d events, plan says %d", est.EventsReplayed, p.EventsReplayed())
	}
}

func TestPlanDeterminism(t *testing.T) {
	prog := testProgram(t)
	tr := randcell.PhasedTrace(rand.New(rand.NewSource(5)), prog, 12000)
	a := mustPlan(t, prog, tr, Options{})
	b := mustPlan(t, prog, tr, Options{})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("plans differ across identical calls:\n%+v\n%+v", a, b)
	}
	c := mustPlan(t, prog, tr, Options{Seed: 99})
	if c.TotalRefs != a.TotalRefs || c.TotalEvents != a.TotalEvents {
		t.Errorf("trace summary depends on seed")
	}
}

func TestNewPlanRejectsBadLineSize(t *testing.T) {
	prog := testProgram(t)
	if _, err := NewPlan(prog, &trace.Trace{}, 0, Options{}); err == nil {
		t.Error("NewPlan accepted zero line size")
	}
}

func TestNewEvaluatorMismatchPanics(t *testing.T) {
	prog := testProgram(t)
	tr := uniformTrace(prog, 500)
	p := mustPlan(t, prog, tr, Options{})
	defer func() {
		if recover() == nil {
			t.Error("NewEvaluator accepted a mismatched compilation")
		}
	}()
	NewEvaluator(cache.CompileTrace(prog, uniformTrace(prog, 400)), p)
}

func TestWarmupDisabled(t *testing.T) {
	prog := testProgram(t)
	tr := randcell.PhasedTrace(rand.New(rand.NewSource(2)), prog, 8000)
	p := mustPlan(t, prog, tr, Options{Warmup: -1})
	if p.Warmup != 0 {
		t.Fatalf("Warmup -1 resolved to %d, want 0", p.Warmup)
	}
	for _, w := range p.Windows {
		if w.WarmStart != w.Start {
			t.Errorf("window %+v has warm-up despite Warmup<0", w)
		}
	}
}

func TestEstimateIntervalClamps(t *testing.T) {
	e := Estimate{MissRate: 0.01, CIHalf: 0.05}
	if lo, hi := e.Interval(); lo != 0 || math.Abs(hi-0.06) > 1e-12 {
		t.Errorf("interval [%v,%v], want [0,0.06]", lo, hi)
	}
	e = Estimate{MissRate: 0.99, CIHalf: 0.05}
	if lo, hi := e.Interval(); hi != 1 || math.Abs(lo-0.94) > 1e-12 {
		t.Errorf("interval [%v,%v], want [0.94,1]", lo, hi)
	}
}

// batchTestLayouts builds several genuinely different layouts of prog:
// the default plus shuffled permutations with random gaps.
func batchTestLayouts(prog *program.Program, n int) []*program.Layout {
	rng := rand.New(rand.NewSource(23))
	layouts := []*program.Layout{program.DefaultLayout(prog)}
	for len(layouts) < n {
		l := program.NewLayout(prog)
		addr := 0
		for _, p := range rng.Perm(prog.NumProcs()) {
			addr += rng.Intn(64)
			l.SetAddr(program.ProcID(p), addr)
			addr += prog.Size(program.ProcID(p))
		}
		layouts = append(layouts, l)
	}
	return layouts
}

// TestMissRateBatchBitIdentical is the windowed batching contract: for a
// clustered multi-window plan, a layout's estimate must not depend on the
// batch it shares — scoring five layouts in one batch reproduces each
// layout's one-lane estimate bit for bit (same replay deltas, same float
// arithmetic).
func TestMissRateBatchBitIdentical(t *testing.T) {
	prog := testProgram(t)
	tr := randcell.PhasedTrace(rand.New(rand.NewSource(5)), prog, 20000)
	p := mustPlan(t, prog, tr, Options{})
	if !p.Clustered || len(p.Windows) < 2 {
		t.Fatalf("want a clustered multi-window plan, got %d windows", len(p.Windows))
	}
	ev := NewEvaluator(cache.CompileTrace(prog, tr), p)
	layouts := batchTestLayouts(prog, 5)

	got, err := ev.MissRateBatch(cache.MustNewBatchSim(testCache), layouts)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range layouts {
		if want := missRate(t, ev, l); got[i] != want {
			t.Errorf("layout %d: batch estimate %+v != one-lane %+v", i, got[i], want)
		}
	}
}

// TestMissRateBatchDegenerate covers the exact and empty plan shapes
// through the batched path.
func TestMissRateBatchDegenerate(t *testing.T) {
	prog := testProgram(t)

	// Empty trace: estimates are exact zeros for every layout.
	p := mustPlan(t, prog, &trace.Trace{}, Options{})
	ev := NewEvaluator(cache.CompileTrace(prog, &trace.Trace{}), p)
	ests, err := ev.MissRateBatch(cache.MustNewBatchSim(testCache), batchTestLayouts(prog, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ests {
		if !e.Exact || e.MissRate != 0 {
			t.Errorf("layout %d on empty trace: %+v", i, e)
		}
	}

	// Single window covering the whole trace: the batched estimate is the
	// exact simulation.
	tr := uniformTrace(prog, 500)
	p = mustPlan(t, prog, tr, Options{Interval: 100000})
	if len(p.Windows) != 1 || p.Windows[0].Start != 0 || p.Windows[0].End != p.TotalEvents {
		t.Fatalf("plan did not produce one full-trace window: %+v", p.Windows)
	}
	ev = NewEvaluator(cache.CompileTrace(prog, tr), p)
	layouts := batchTestLayouts(prog, 3)
	ests, err = ev.MissRateBatch(cache.MustNewBatchSim(testCache), layouts)
	if err != nil {
		t.Fatal(err)
	}
	sim := cache.MustNewSim(testCache)
	for i, l := range layouts {
		if !ests[i].Exact {
			t.Errorf("layout %d: full-window batch estimate not exact", i)
		}
		if exact := sim.RunTrace(l, tr).MissRate(); ests[i].MissRate != exact {
			t.Errorf("layout %d: batch exact %.6f != simulation %.6f", i, ests[i].MissRate, exact)
		}
	}
}
