package cache

import (
	"math/rand"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

// TestColdMissCounting checks the compulsory/conflict split on a known
// access pattern: first touches are cold, ping-pong evictions are not.
func TestColdMissCounting(t *testing.T) {
	sim := newRefSim(Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}) // 4 lines
	sim.access(0)                                                     // cold miss
	sim.access(128)                                                   // cold miss, evicts line 0
	sim.access(0)                                                     // conflict miss: seen before
	sim.access(128)                                                   // conflict miss
	sim.access(0)                                                     // conflict miss
	st := sim.stats
	if st.Misses != 5 || st.Cold != 2 {
		t.Fatalf("stats = %+v, want 5 misses 2 cold", st)
	}
	if st.Conflict() != 3 {
		t.Errorf("Conflict() = %d, want 3", st.Conflict())
	}
}

// TestColdAfterReset: reset starts a fresh run, so the same first touches
// are compulsory again — no under-counting from stale first touches — and
// repeated reset cycles count identically (no double-counting either).
func TestColdAfterReset(t *testing.T) {
	sim := newRefSim(Config{SizeBytes: 128, LineBytes: 32, Assoc: 1})
	run := func() Stats {
		sim.reset()
		for _, a := range []int64{0, 128, 0, 128, 32} {
			sim.access(a)
		}
		return sim.stats
	}
	first := run()
	if first.Cold != 3 { // lines 0, 4 (addr 128), 1 (addr 32)
		t.Fatalf("first run cold = %d, want 3 (stats %+v)", first.Cold, first)
	}
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d stats = %+v, want %+v", i+2, got, first)
		}
	}
}

// TestColdMatchesClassifier cross-checks the plain compiled run against
// the classifier on a randomized trace: both define cold as first-ever
// reference to a line, so the totals must agree exactly.
func TestColdMatchesClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var procs []program.Procedure
	for i := 0; i < 40; i++ {
		procs = append(procs, program.Procedure{
			Name: string(rune('A'+i%26)) + string(rune('0'+i/26)),
			Size: 32 + rng.Intn(300),
		})
	}
	prog := program.MustNew(procs)
	var events []trace.Event
	for i := 0; i < 3000; i++ {
		events = append(events, trace.Event{Proc: program.ProcID(rng.Intn(40))})
	}
	tr := &trace.Trace{Events: events}
	layout := program.DefaultLayout(prog)
	cfg := Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}

	st, err := RunTrace(cfg, layout, tr)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := RunTraceClassified(cfg, layout, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != cs.Misses {
		t.Fatalf("miss totals disagree: %d vs %d", st.Misses, cs.Misses)
	}
	if st.Cold != cs.Cold {
		t.Errorf("cold tallies disagree: Sim %d, classifier %d", st.Cold, cs.Cold)
	}
	if st.Conflict() != cs.Capacity+cs.Conflict {
		t.Errorf("Conflict() = %d, want capacity+conflict = %d", st.Conflict(), cs.Capacity+cs.Conflict)
	}
}

// TestStatsAddCold: Stats.Add must carry the cold tally along.
func TestStatsAddCold(t *testing.T) {
	s := Stats{Refs: 10, Misses: 4, Cold: 2}
	s.Add(Stats{Refs: 5, Misses: 3, Cold: 1})
	if s.Cold != 3 || s.Conflict() != 4 {
		t.Errorf("after Add: %+v (Conflict %d), want Cold 3 Conflict 4", s, s.Conflict())
	}
}
