package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/trace"
)

// windowFixture builds a randomized program, trace and layout for the
// windowed-replay tests. Repeats and partial extents are both present so
// the collapsed fast path and the general loop are exercised.
func windowFixture(seed int64, events int) (*program.Program, *program.Layout, *trace.Trace) {
	rng := rand.New(rand.NewSource(seed))
	procs := make([]program.Procedure, 40)
	for i := range procs {
		procs[i] = program.Procedure{
			Name: fmt.Sprintf("w%02d", i),
			Size: 32 + rng.Intn(400),
		}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	for i := 0; i < events; i++ {
		tr.Append(trace.Event{
			Proc:   program.ProcID(rng.Intn(len(procs))),
			Extent: int32(rng.Intn(300)),
			Repeat: int32(rng.Intn(8)),
		})
	}
	return prog, program.DefaultLayout(prog), tr
}

// bound binds layout, compiled against ct for cfg, to a fresh compiled
// simulator.
func bound(t *testing.T, cfg cache.Config, ct *cache.CompiledTrace, layout *program.Layout) *cache.BatchSim {
	t.Helper()
	tab, err := cache.CompileLayout(cfg, ct, layout)
	if err != nil {
		t.Fatal(err)
	}
	bs := cache.MustNewBatchSim(cfg)
	if err := bs.Bind(tab); err != nil {
		t.Fatal(err)
	}
	return bs
}

// replayWindow replays one Slice window through bs and returns its
// statistics delta.
func replayWindow(t *testing.T, bs *cache.BatchSim, win *cache.CompiledTrace) cache.Stats {
	t.Helper()
	delta, err := bs.Replay(win)
	if err != nil {
		t.Fatal(err)
	}
	return delta
}

// TestReplayWindowsTileToRun verifies the windowed contract: replaying
// consecutive Slice windows through BatchSim.Replay (after one Bind)
// yields per-window deltas equal to the per-reference oracle replaying the
// same windows without resets, and the deltas sum to a single RunCompiled
// over the whole trace.
func TestReplayWindowsTileToRun(t *testing.T) {
	for _, geom := range []cache.Config{
		{SizeBytes: 1024, LineBytes: 32, Assoc: 1},
		{SizeBytes: 1024, LineBytes: 32, Assoc: 2},
		{SizeBytes: 96 * 32, LineBytes: 32, Assoc: 1}, // non-power-of-two sets
	} {
		prog, layout, tr := windowFixture(11, 5000)
		ct := cache.CompileTrace(prog, tr)
		want := cache.MustNewSim(geom).RunCompiled(ct, layout)

		bs := bound(t, geom, ct, layout)
		oracle := cache.NewRefSim(geom)
		var sum cache.Stats
		lo := 0
		for _, width := range []int{1, 7, 512, 997, 3483} {
			hi := min(lo+width, ct.Len())
			delta := replayWindow(t, bs, ct.Slice(lo, hi))
			if od := oracle.ReplayWindowOracle(layout, tr, lo, hi); delta != od {
				t.Errorf("%+v window [%d:%d): delta %+v != oracle %+v", geom, lo, hi, delta, od)
			}
			sum.Add(delta)
			lo = hi
		}
		if lo != ct.Len() {
			t.Fatalf("tiling bug: covered %d of %d events", lo, ct.Len())
		}
		if sum != want {
			t.Errorf("%+v: summed deltas %+v != full replay %+v", geom, sum, want)
		}
		if got := oracle.Stats(); got != want {
			t.Errorf("%+v: oracle totals %+v != full replay %+v", geom, got, want)
		}
	}
}

// TestReplayWindowWarmupColdAccounting pins the warm-up semantics the
// sampler relies on: a line first touched during a discarded warm-up window
// must not be counted cold again by the measurement window that follows.
func TestReplayWindowWarmupColdAccounting(t *testing.T) {
	prog, layout, tr := windowFixture(23, 2000)
	ct := cache.CompileTrace(prog, tr)
	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 1}

	bs := bound(t, cfg, ct, layout)
	warm := replayWindow(t, bs, ct.Slice(0, 1000))
	body := replayWindow(t, bs, ct.Slice(1000, 2000))
	oracle := cache.NewRefSim(cfg)
	ow := oracle.ReplayWindowOracle(layout, tr, 0, 1000)
	ob := oracle.ReplayWindowOracle(layout, tr, 1000, 2000)
	if warm != ow || body != ob {
		t.Errorf("warm/body deltas %+v/%+v != oracle %+v/%+v", warm, body, ow, ob)
	}

	// A full run's cold misses split exactly across the two halves.
	full := cache.MustNewSim(cfg).RunCompiled(ct, layout)
	if warm.Cold+body.Cold != full.Cold {
		t.Errorf("cold split %d+%d != full %d", warm.Cold, body.Cold, full.Cold)
	}
	if warm.Cold == 0 {
		t.Fatal("fixture never takes a cold miss in the first half")
	}
	// A cold start of the same window must see at least as many cold misses
	// as the warmed continuation (warm-up can only pre-touch lines).
	bs.Reset()
	alone := replayWindow(t, bs, ct.Slice(1000, 2000))
	if alone.Cold < body.Cold {
		t.Errorf("cold-start window cold %d < warmed window cold %d", alone.Cold, body.Cold)
	}
	if alone.Refs != body.Refs {
		t.Errorf("window refs depend on warm-up: %d vs %d", alone.Refs, body.Refs)
	}
}

// TestCompiledTraceSliceBounds pins the slice contract.
func TestCompiledTraceSliceBounds(t *testing.T) {
	prog, _, tr := windowFixture(5, 100)
	ct := cache.CompileTrace(prog, tr)
	if got := ct.Slice(10, 60).Len(); got != 50 {
		t.Errorf("Slice(10,60).Len() = %d, want 50", got)
	}
	if got := ct.Slice(0, 0).Len(); got != 0 {
		t.Errorf("empty slice Len() = %d, want 0", got)
	}
	for _, bad := range [][2]int{{-1, 10}, {0, 101}, {60, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			ct.Slice(bad[0], bad[1])
		}()
	}
}
