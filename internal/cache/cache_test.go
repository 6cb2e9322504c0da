package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/program"
	"repro/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		PaperConfig,
		{SizeBytes: 8192, LineBytes: 32, Assoc: 2},
		{SizeBytes: 1024, LineBytes: 64, Assoc: 4},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Assoc: 1},
		{SizeBytes: 8192, LineBytes: 0, Assoc: 1},
		{SizeBytes: 8192, LineBytes: 32, Assoc: 0},
		{SizeBytes: 100, LineBytes: 32, Assoc: 1},  // size not multiple of line
		{SizeBytes: 8192, LineBytes: 32, Assoc: 5}, // 256 lines not divisible by 5
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) passed, want error", c)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	if PaperConfig.NumLines() != 256 {
		t.Errorf("NumLines = %d, want 256", PaperConfig.NumLines())
	}
	if PaperConfig.NumSets() != 256 {
		t.Errorf("NumSets = %d, want 256", PaperConfig.NumSets())
	}
	two := Config{SizeBytes: 8192, LineBytes: 32, Assoc: 2}
	if two.NumSets() != 128 {
		t.Errorf("2-way NumSets = %d, want 128", two.NumSets())
	}
}

func TestDirectMappedConflict(t *testing.T) {
	sim := newRefSim(Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}) // 4 lines
	// Addresses 0 and 128 map to the same line (set 0).
	if sim.access(0) {
		t.Error("cold access hit")
	}
	if !sim.access(0) {
		t.Error("repeat access missed")
	}
	if sim.access(128) {
		t.Error("conflicting access hit")
	}
	if sim.access(0) {
		t.Error("access after conflict hit; line should have been evicted")
	}
	st := sim.stats
	if st.Refs != 4 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 4 refs 3 misses", st)
	}
}

func TestTwoWayAvoidsPingPong(t *testing.T) {
	sim := newRefSim(Config{SizeBytes: 128, LineBytes: 32, Assoc: 2}) // 2 sets
	// Lines 0 and 64 map to set 0 (2 sets → even line addrs to set 0).
	sim.access(0)
	sim.access(128)
	// Both fit in the 2-way set; repeats hit.
	if !sim.access(0) || !sim.access(128) {
		t.Error("2-way set evicted a resident line")
	}
	// A third line in the set evicts the LRU (0, since 128 was just used).
	sim.access(256)
	if !sim.access(128) {
		t.Error("MRU line 128 evicted instead of LRU")
	}
	if sim.access(0) {
		t.Error("LRU line 0 still resident after eviction")
	}
}

func TestLRUOrdering(t *testing.T) {
	sim := newRefSim(Config{SizeBytes: 256, LineBytes: 32, Assoc: 4}) // 2 sets, 4-way
	// Fill set 0 with lines 0,2,4,6 (even line addresses).
	for _, a := range []int64{0, 64, 128, 192} {
		sim.access(a)
	}
	sim.access(0) // touch 0, making 64 the LRU
	sim.access(256)
	if !sim.access(0) || !sim.access(128) || !sim.access(192) {
		t.Error("non-LRU line evicted")
	}
	if sim.access(64) {
		t.Error("LRU line 64 survived eviction")
	}
}

func TestReset(t *testing.T) {
	sim := newRefSim(PaperConfig)
	sim.access(0)
	sim.reset()
	if st := sim.stats; st.Refs != 0 || st.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	if sim.access(0) {
		t.Error("access hit after reset")
	}
}

// TestCompiledEngineMatchesHandPatterns replays the fixed access patterns
// of the hand-model tests (above and in cold_test.go) through the compiled
// engine, so production is held to the same hand-computed Refs, Misses and
// Cold as the per-reference simulator: one 32-byte procedure per distinct
// line, placed at that line's address, and one activation per access. A
// second run through the same Sim must start from an empty cache again,
// the compiled form of the reset patterns.
func TestCompiledEngineMatchesHandPatterns(t *testing.T) {
	dm4 := Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}
	for _, tc := range []struct {
		name  string
		cfg   Config
		addrs []int64
		want  Stats
	}{
		{"DirectMappedConflict", dm4, []int64{0, 0, 128, 0}, Stats{Refs: 4, Misses: 3, Cold: 2}},
		{"TwoWayAvoidsPingPong", Config{SizeBytes: 128, LineBytes: 32, Assoc: 2},
			[]int64{0, 128, 0, 128, 256, 128, 0}, Stats{Refs: 7, Misses: 4, Cold: 3}},
		{"LRUOrdering", Config{SizeBytes: 256, LineBytes: 32, Assoc: 4},
			[]int64{0, 64, 128, 192, 0, 256, 0, 128, 192, 64}, Stats{Refs: 10, Misses: 6, Cold: 5}},
		{"Reset", PaperConfig, []int64{0}, Stats{Refs: 1, Misses: 1, Cold: 1}},
		{"ColdMissCounting", dm4, []int64{0, 128, 0, 128, 0}, Stats{Refs: 5, Misses: 5, Cold: 2}},
		{"ColdAfterReset", dm4, []int64{0, 128, 0, 128, 32}, Stats{Refs: 5, Misses: 5, Cold: 3}},
	} {
		var procs []program.Procedure
		procOf := map[int64]program.ProcID{}
		for _, a := range tc.addrs {
			if _, ok := procOf[a]; !ok {
				procOf[a] = program.ProcID(len(procs))
				procs = append(procs, program.Procedure{Name: fmt.Sprintf("line%d", a/32), Size: 32})
			}
		}
		prog := program.MustNew(procs)
		layout := program.NewLayout(prog)
		for a, p := range procOf {
			layout.SetAddr(p, int(a))
		}
		tr := &trace.Trace{}
		for _, a := range tc.addrs {
			tr.Append(trace.Event{Proc: procOf[a]})
		}
		sim := MustNewSim(tc.cfg)
		for run := 1; run <= 2; run++ {
			if got := sim.RunTrace(layout, tr); got != tc.want {
				t.Errorf("%s run %d: engine stats %+v, want %+v", tc.name, run, got, tc.want)
			}
		}
		ref := newRefSim(tc.cfg)
		for _, a := range tc.addrs {
			ref.access(a)
		}
		if ref.stats != tc.want {
			t.Errorf("%s: per-reference stats %+v, want %+v", tc.name, ref.stats, tc.want)
		}
	}
}

func TestStatsAddAndMissRate(t *testing.T) {
	s := Stats{Refs: 10, Misses: 3}
	s.Add(Stats{Refs: 10, Misses: 1})
	if s.Refs != 20 || s.Misses != 4 {
		t.Errorf("Add = %+v", s)
	}
	if got := s.MissRate(); got != 0.2 {
		t.Errorf("MissRate = %v, want 0.2", got)
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty MissRate != 0")
	}
}

func TestRunTraceWithLayout(t *testing.T) {
	// Two 32-byte procedures in a 64-byte cache with 32-byte lines (2 lines).
	prog := program.MustNew([]program.Procedure{
		{Name: "A", Size: 32},
		{Name: "B", Size: 32},
	})
	cfg := Config{SizeBytes: 64, LineBytes: 32, Assoc: 1}

	// Layout 1: A at 0, B at 32 → different lines, alternation all hits
	// after the cold misses.
	l1 := program.DefaultLayout(prog)
	tr := trace.MustFromNames(prog, "A", "B", "A", "B", "A", "B")
	st, err := RunTrace(cfg, l1, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != 6 || st.Misses != 2 {
		t.Errorf("disjoint layout: %+v, want 6 refs 2 misses", st)
	}

	// Layout 2: A at 0, B at 64 → same cache line, alternation all misses.
	l2 := program.NewLayout(prog)
	l2.SetAddr(0, 0)
	l2.SetAddr(1, 64)
	st, err = RunTrace(cfg, l2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != 6 || st.Misses != 6 {
		t.Errorf("conflicting layout: %+v, want 6 refs 6 misses", st)
	}
}

func TestRunTraceUnalignedProcedureTouchesBothLines(t *testing.T) {
	prog := program.MustNew([]program.Procedure{{Name: "A", Size: 32}})
	cfg := Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}
	l := program.NewLayout(prog)
	l.SetAddr(0, 16) // straddles lines 0 and 1
	tr := trace.MustFromNames(prog, "A")
	st, err := RunTrace(cfg, l, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != 2 || st.Misses != 2 {
		t.Errorf("unaligned: %+v, want 2 refs 2 misses", st)
	}
}

// Property: misses never exceed references in the per-reference
// simulator, and every access is counted.
func TestSimSanityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{SizeBytes: 512, LineBytes: 32, Assoc: 1}
		sim := newRefSim(cfg)
		for i := 0; i < 500; i++ {
			sim.access(int64(rng.Intn(4096)))
		}
		st := sim.stats
		return st.Misses <= st.Refs && st.Refs == 500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: increasing associativity at fixed capacity never increases the
// miss count for an LRU stack-friendly reference stream of unique lines
// accessed in loops (inclusion property of LRU).
func TestAssociativityMonotoneOnLoops(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// A looping reference pattern over a small working set.
		ws := rng.Intn(20) + 2
		addrs := make([]int64, ws)
		for i := range addrs {
			addrs[i] = int64(rng.Intn(64)) * 32
		}
		missesAt := func(assoc int) int64 {
			sim := newRefSim(Config{SizeBytes: 512, LineBytes: 32, Assoc: assoc})
			for loop := 0; loop < 10; loop++ {
				for _, a := range addrs {
					sim.access(a)
				}
			}
			return sim.stats.Misses
		}
		// Fully associative LRU (16 ways of a 16-line cache) never does
		// worse than direct-mapped on a cyclic pattern that fits.
		if ws <= 16 {
			return missesAt(16) <= missesAt(1)+int64(ws)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
