package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/program"
	"repro/internal/trace"
)

// Cross-validation: the per-reference simulator configured with
// associativity == number of lines is a fully-associative LRU cache and
// must agree access-for-access with the independent fullyAssoc stack.
func TestSimFullyAssociativeMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const lines = 8
		sim := newRefSim(Config{SizeBytes: lines * 32, LineBytes: 32, Assoc: lines})
		oracle := newFullyAssoc(lines)
		for i := 0; i < 500; i++ {
			addr := int64(rng.Intn(64)) * 32
			if sim.access(addr) != oracle.access(addr/32) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A direct-mapped cache of L lines and a 1-way set-associative cache of L
// sets are definitionally the same machine; Config expresses both the same
// way, so this checks the per-reference simulator against a hand-rolled
// direct-mapped model instead.
func TestSimDirectMappedMatchesHandModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const lines = 16
		sim := newRefSim(Config{SizeBytes: lines * 32, LineBytes: 32, Assoc: 1})
		var tags [lines]int64
		for i := range tags {
			tags[i] = -1
		}
		for i := 0; i < 500; i++ {
			addr := int64(rng.Intn(256)) * 32
			line := addr / 32
			wantHit := tags[line%lines] == line
			tags[line%lines] = line
			if sim.access(addr) != wantHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// alignmentTrace is the fixture for the RunTrace/NumLineRefs agreement
// tests: two procedures, activations with extents and repeats chosen so
// that every divergence mode (full extent, partial extent, repeats) is
// exercised.
func alignmentTrace() (*program.Program, *trace.Trace) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 96}, // 3 lines when aligned
		{Name: "b", Size: 32}, // exactly 1 line when aligned
	})
	tr := &trace.Trace{Events: []trace.Event{
		{Proc: 0, Repeat: 3},
		{Proc: 1, Repeat: 2},
		{Proc: 0, Extent: 33},
		{Proc: 1},
	}}
	return prog, tr
}

// With every procedure start line-aligned, the simulator's reference count
// must equal trace.NumLineRefs exactly: both count ceil(extent/line) lines
// per repeat.
func TestRunTraceRefsAlignedAgreesWithNumLineRefs(t *testing.T) {
	prog, tr := alignmentTrace()
	cfg := Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	layout := program.NewLayout(prog)
	layout.SetAddr(0, 0)
	layout.SetAddr(1, 96) // 96 % 32 == 0: aligned
	st, err := RunTrace(cfg, layout, tr)
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.NumLineRefs(prog, cfg.LineBytes); st.Refs != want {
		t.Errorf("aligned layout: RunTrace refs = %d, NumLineRefs = %d", st.Refs, want)
	}
}

// With unaligned starts, RunTrace's count is intentionally larger: an
// activation whose placed span crosses one extra line boundary contributes
// one extra reference per repeat. This pins the documented divergence so
// neither side drifts silently.
func TestRunTraceRefsUnalignedDivergence(t *testing.T) {
	prog, tr := alignmentTrace()
	cfg := Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	layout := program.NewLayout(prog)
	layout.SetAddr(0, 4)   // unaligned; extents 96 and 33 both cross an extra line
	layout.SetAddr(1, 100) // unaligned; full 32-byte extent spans 2 lines
	st, err := RunTrace(cfg, layout, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-computed spans (line size 32):
	//   proc 0 full (96B at 4):  [4,100)  → 4 lines × 3 repeats = 12 (aligned: 9)
	//   proc 1 full (32B at 100): [100,132) → 2 lines × 2 repeats = 4 (aligned: 2)
	//   proc 0 extent 33 at 4:   [4,37)   → 2 lines            = 2 (aligned: 2 — ceil
	//     already rounds 33B up to 2 lines, so this span does NOT diverge)
	//   proc 1 full at 100:      [100,132) → 2 lines            = 2 (aligned: 1)
	const wantRefs = 20
	base := tr.NumLineRefs(prog, cfg.LineBytes) // 9 + 2 + 2 + 1 = 14
	if base != 14 {
		t.Fatalf("NumLineRefs = %d, want 14", base)
	}
	if st.Refs != wantRefs {
		t.Errorf("unaligned layout: RunTrace refs = %d, want %d (NumLineRefs %d + 6 extra)", st.Refs, wantRefs, base)
	}
}

// Reusing one simulator across layouts via the RunTrace method must give
// the same statistics as a fresh simulator per measurement.
func TestSimRunTraceReuseMatchesFresh(t *testing.T) {
	prog, tr := alignmentTrace()
	cfg := Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}
	aligned := program.NewLayout(prog)
	aligned.SetAddr(0, 0)
	aligned.SetAddr(1, 96)
	unaligned := program.NewLayout(prog)
	unaligned.SetAddr(0, 4)
	unaligned.SetAddr(1, 100)

	shared := MustNewSim(cfg)
	for _, layout := range []*program.Layout{aligned, unaligned, aligned} {
		fresh, err := RunTrace(cfg, layout, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := shared.RunTrace(layout, tr); got != fresh {
			t.Errorf("reused sim stats %+v != fresh sim stats %+v", got, fresh)
		}
	}
}

// LRU inclusion: at the same capacity, a fully-associative LRU cache never
// misses on a reference that a smaller fully-associative LRU cache hits.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small := newLRUList(32, 4)
		big := newLRUList(32, 8)
		for i := 0; i < 400; i++ {
			line := int64(rng.Intn(32))
			sHit := small.access(line)
			bHit := big.access(line)
			if sHit && !bHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
