package cache

import (
	"math/rand"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

// CompileTrace must resolve the zero-means-default encodings and extent
// clamping exactly as the per-event Event methods do.
func TestCompileTraceResolvesDefaults(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 96},
		{Name: "b", Size: 32},
	})
	tr := &trace.Trace{Events: []trace.Event{
		{Proc: 0},                        // Extent 0 → full 96, Repeat 0 → 1
		{Proc: 0, Extent: 33, Repeat: 5}, // explicit
		{Proc: 1, Extent: 500},           // clamped to 32
		{Proc: 1, Repeat: 1},             // explicit 1
	}}
	ct := CompileTrace(prog, tr)
	if ct.Len() != len(tr.Events) {
		t.Fatalf("Len = %d, want %d", ct.Len(), len(tr.Events))
	}
	if ct.Program() != prog {
		t.Error("Program() is not the compiled program")
	}
	for i, e := range tr.Events {
		if got, want := ct.classes.ext[ct.events[i].class], int32(e.ExtentBytes(prog)); got != want {
			t.Errorf("event %d: compiled extent %d, want %d", i, got, want)
		}
		if got, want := ct.events[i].reps, int32(e.Repeats()); got != want {
			t.Errorf("event %d: compiled repeats %d, want %d", i, got, want)
		}
	}
}

// RunTrace memoizes the compilation: replaying the same (program, trace)
// pair reuses one CompiledTrace, and appending to the trace invalidates it.
func TestRunTraceMemoizesCompilation(t *testing.T) {
	prog, tr := alignmentTrace()
	layout := program.DefaultLayout(prog)
	sim := MustNewSim(Config{SizeBytes: 256, LineBytes: 32, Assoc: 1})
	sim.RunTrace(layout, tr)
	first := sim.memo
	if first == nil {
		t.Fatal("no compiled trace memoized")
	}
	sim.RunTrace(layout, tr)
	if sim.memo != first {
		t.Error("second run recompiled an unchanged trace")
	}
	tr.Append(trace.Event{Proc: 0})
	sim.RunTrace(layout, tr)
	if sim.memo == first {
		t.Error("grown trace did not invalidate the memoized compilation")
	}
}

// A replayed activation spanning more lines than the cache holds can evict
// its own head, so repeats must fall back to the general loop — and agree
// with the oracle doing exactly that.
func TestReplaySpanExceedsCacheFallsBack(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "huge", Size: 3000}, // 94 lines > 64-line cache
		{Name: "tiny", Size: 40},
	})
	tr := &trace.Trace{Events: []trace.Event{
		{Proc: 0, Repeat: 7},
		{Proc: 1, Repeat: 3},
		{Proc: 0, Repeat: 2},
	}}
	cfg := Config{SizeBytes: 2048, LineBytes: 32, Assoc: 2}
	layout := program.DefaultLayout(prog)
	sim := MustNewSim(cfg)
	got := sim.RunTrace(layout, tr)
	want := newRefSim(cfg).runTraceOracle(layout, tr)
	if got != want {
		t.Errorf("engine stats %+v != oracle %+v", got, want)
	}
	rs := sim.Replay()
	if rs.FallbackEvents != 2 {
		t.Errorf("FallbackEvents = %d, want 2 (the two huge repeats)", rs.FallbackEvents)
	}
	if rs.FastEvents != 1 {
		t.Errorf("FastEvents = %d, want 1 (the tiny repeat)", rs.FastEvents)
	}
	if got.Misses == got.Cold {
		t.Error("fixture too tame: the self-evicting span should add non-cold misses")
	}
}

// The collapse boundary is exact: a span of NumLines lines collapses, one
// more line does not. The unaligned start makes the placed span one line
// wider than the procedure's aligned footprint, which is precisely what
// must push it over the limit.
func TestReplayCollapseBoundaryUnalignedStart(t *testing.T) {
	cfg := Config{SizeBytes: 512, LineBytes: 32, Assoc: 2} // 16 lines
	prog := program.MustNew([]program.Procedure{
		{Name: "edge", Size: 16 * 32}, // exactly NumLines when aligned
	})
	tr := &trace.Trace{Events: []trace.Event{{Proc: 0, Repeat: 9}}}

	for _, tc := range []struct {
		addr         string
		start        int
		wantFast     int64
		wantFallback int64
	}{
		{"aligned", 0, 1, 0},   // span 16 = limit: collapses
		{"unaligned", 4, 0, 1}, // span 17 > limit: falls back
	} {
		layout := program.NewLayout(prog)
		layout.SetAddr(0, tc.start)
		sim := MustNewSim(cfg)
		got := sim.RunTrace(layout, tr)
		want := newRefSim(cfg).runTraceOracle(layout, tr)
		if got != want {
			t.Errorf("%s: engine stats %+v != oracle %+v", tc.addr, got, want)
		}
		rs := sim.Replay()
		if rs.FastEvents != tc.wantFast || rs.FallbackEvents != tc.wantFallback {
			t.Errorf("%s: fast %d fallback %d, want %d/%d",
				tc.addr, rs.FastEvents, rs.FallbackEvents, tc.wantFast, tc.wantFallback)
		}
	}
}

// Collapsed repeats must contribute their references: the accounting
// identity Refs(engine) == Refs(oracle) is covered by the differential
// tests; this pins the counter bookkeeping itself.
func TestReplayStatsAccounting(t *testing.T) {
	prog := program.MustNew([]program.Procedure{{Name: "a", Size: 64}})
	tr := &trace.Trace{Events: []trace.Event{{Proc: 0, Repeat: 10}}}
	sim := MustNewSim(Config{SizeBytes: 512, LineBytes: 32, Assoc: 1})
	st := sim.RunTrace(program.DefaultLayout(prog), tr)
	rs := sim.Replay()
	if rs.CollapsedRepeats != 9 || rs.CollapsedRefs != 9*2 {
		t.Errorf("collapsed repeats/refs = %d/%d, want 9/18", rs.CollapsedRepeats, rs.CollapsedRefs)
	}
	if st.Refs != 10*2 {
		t.Errorf("Refs = %d, want 20", st.Refs)
	}
	var sum ReplayStats
	sum.Add(rs)
	sum.Add(rs)
	if sum.CollapsedRefs != 2*rs.CollapsedRefs || sum.Events != 2*rs.Events {
		t.Errorf("Add: %+v is not twice %+v", sum, rs)
	}
}

// The epoch-stamped Reset must keep cold-miss accounting exact across
// simulator reuse: every run starts from a cold cache, so each run of the
// same (layout, trace) reports identical Cold counts, including right
// after the epoch counter wraps.
func TestReplayResetColdMissEpochs(t *testing.T) {
	prog, tr := alignmentTrace()
	layout := program.DefaultLayout(prog)
	cfg := Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}
	sim := MustNewSim(cfg)
	first := sim.RunTrace(layout, tr)
	for i := 0; i < 3; i++ {
		if got := sim.RunTrace(layout, tr); got != first {
			t.Fatalf("run %d after Reset: stats %+v != first run %+v", i+2, got, first)
		}
	}
	// Force the epoch wrap path: the engine's Reset clears seen wholesale
	// when its stamp overflows, and cold accounting must survive it.
	sim.engine.epoch = ^uint32(0)
	if got := sim.RunTrace(layout, tr); got != first {
		t.Errorf("post-wrap run: stats %+v != first run %+v", got, first)
	}
}

// After the first replay warms the memoized compilation and the seen
// slice, steady-state RunTrace must not allocate: the perturbation sweeps
// call it hundreds of times per benchmark.
func TestRunTraceSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	procs := make([]program.Procedure, 40)
	for i := range procs {
		procs[i] = program.Procedure{Name: string(rune('a' + i%26)), Size: 16 + rng.Intn(300)}
	}
	for i := range procs {
		procs[i].Name = procs[i].Name + string(rune('0'+i/26))
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	for i := 0; i < 500; i++ {
		tr.Append(trace.Event{
			Proc:   program.ProcID(rng.Intn(len(procs))),
			Repeat: int32(rng.Intn(20)),
		})
	}
	layout := program.DefaultLayout(prog)
	sim := MustNewSim(PaperConfig)
	sim.RunTrace(layout, tr) // warm: compile + grow seen
	if n := testing.AllocsPerRun(10, func() { sim.RunTrace(layout, tr) }); n != 0 {
		t.Errorf("steady-state RunTrace allocates %.0f times per run, want 0", n)
	}
}

// RunCompiled must reject a layout of a different program outright.
func TestRunCompiledProgramMismatchPanics(t *testing.T) {
	progA := program.MustNew([]program.Procedure{{Name: "a", Size: 32}})
	progB := program.MustNew([]program.Procedure{{Name: "b", Size: 32}})
	ct := CompileTrace(progA, &trace.Trace{Events: []trace.Event{{Proc: 0}}})
	sim := MustNewSim(PaperConfig)
	defer func() {
		if recover() == nil {
			t.Error("replaying against another program's layout did not panic")
		}
	}()
	sim.RunCompiled(ct, program.DefaultLayout(progB))
}
