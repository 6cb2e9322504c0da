package baseline

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/wcg"
)

var hkcCache = cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1} // 8 lines

func TestHKCAvoidsNeighborOverlap(t *testing.T) {
	// caller (5 lines) calls two callees (3 lines each): the callees must
	// not overlap the caller in the cache even though caller+callee > cache.
	prog := program.MustNew([]program.Procedure{
		{Name: "caller", Size: 160}, // 5 lines
		{Name: "calleeA", Size: 96}, // 3 lines
		{Name: "calleeB", Size: 64}, // 2 lines
	})
	tr := &trace.Trace{}
	for i := 0; i < 40; i++ {
		tr.Append(trace.Event{Proc: 0})
		tr.Append(trace.Event{Proc: 1})
		tr.Append(trace.Event{Proc: 0})
		tr.Append(trace.Event{Proc: 2})
	}
	g := wcg.Build(tr)
	l, err := HKC(prog, g, nil, hkcCache)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	lines := func(p program.ProcID) map[int]bool {
		out := map[int]bool{}
		start := l.StartLine(p, hkcCache.LineBytes, hkcCache.NumLines())
		for i := 0; i < prog.SizeLines(p, hkcCache.LineBytes); i++ {
			out[(start+i)%hkcCache.NumLines()] = true
		}
		return out
	}
	caller := lines(0)
	for _, callee := range []program.ProcID{1, 2} {
		for ln := range lines(callee) {
			if caller[ln] {
				t.Errorf("callee %d overlaps caller on line %d", callee, ln)
			}
		}
	}
}

func TestHKCBeatsConflictingDefault(t *testing.T) {
	// Construct a program whose default layout conflicts badly and verify
	// HKC improves it.
	prog := program.MustNew([]program.Procedure{
		{Name: "hot1", Size: 4096},
		{Name: "pad", Size: 4096},
		{Name: "hot2", Size: 4096},
	})
	tr := &trace.Trace{}
	for i := 0; i < 100; i++ {
		tr.Append(trace.Event{Proc: 0, Extent: 1024})
		tr.Append(trace.Event{Proc: 2, Extent: 1024})
	}
	cfg := cache.PaperConfig
	l, err := HKC(prog, wcg.Build(tr), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hkcStats, err := cache.RunTrace(cfg, l, tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := program.NewLayout(prog)
	bad.SetAddr(0, 0)
	bad.SetAddr(1, 16384)
	bad.SetAddr(2, 8192) // hot2 exactly one cache size after hot1
	badStats, err := cache.RunTrace(cfg, bad, tr)
	if err != nil {
		t.Fatal(err)
	}
	if hkcStats.Misses >= badStats.Misses {
		t.Errorf("HKC misses %d not better than conflicting layout %d", hkcStats.Misses, badStats.Misses)
	}
}

func TestHKCCoversAllProcedures(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 64},
		{Name: "b", Size: 64},
		{Name: "cold", Size: 64},
	})
	tr := &trace.Trace{}
	for i := 0; i < 20; i++ {
		tr.Append(trace.Event{Proc: 0})
		tr.Append(trace.Event{Proc: 1})
	}
	tr.Append(trace.Event{Proc: 2})
	pop := popular.Select(prog, tr, popular.Options{Coverage: 0.9, MinCount: 2})
	g := wcg.BuildFiltered(tr, pop.Contains)
	l, err := HKC(prog, g, pop, hkcCache)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Extent() < prog.TotalSize() {
		t.Errorf("extent %d < total %d: some procedure unplaced", l.Extent(), prog.TotalSize())
	}
}

// Property: HKC always produces valid complete layouts.
func TestHKCAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		procs := make([]program.Procedure, n)
		for i := range procs {
			procs[i] = program.Procedure{
				Name: "p" + string(rune('a'+i)),
				Size: rng.Intn(1500) + 1,
			}
		}
		prog := program.MustNew(procs)
		tr := &trace.Trace{}
		for i := 0; i < 300; i++ {
			tr.Append(trace.Event{Proc: program.ProcID(rng.Intn(n))})
		}
		l, err := HKC(prog, wcg.Build(tr), nil, hkcCache)
		if err != nil {
			return false
		}
		return l.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func sameLayout(t *testing.T, ctx string, prog *program.Program, got, want *program.Layout) {
	t.Helper()
	for p := 0; p < prog.NumProcs(); p++ {
		if g, w := got.Addr(program.ProcID(p)), want.Addr(program.ProcID(p)); g != w {
			t.Fatalf("%s: procedure %d at %d, oracle %d", ctx, p, g, w)
		}
	}
}

// HKC must place exactly as the oracle that scores one pad at a time, on
// random programs whose procedures range up to twice the cache, with and
// without a popular subset, across three geometries.
func TestHKCMatchesOracle(t *testing.T) {
	geoms := []cache.Config{
		{SizeBytes: 256, LineBytes: 32, Assoc: 1},
		{SizeBytes: 512, LineBytes: 64, Assoc: 1},
		{SizeBytes: 2048, LineBytes: 32, Assoc: 1},
	}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		maxSize := []int{200, 1000, 4096}[rng.Intn(3)]
		procs := make([]program.Procedure, n)
		for i := range procs {
			procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: rng.Intn(maxSize) + 1}
		}
		prog := program.MustNew(procs)
		// A walk that mostly stays among a few recent procedures, so the
		// call graph has heavy and light edges and compounds merge.
		tr := &trace.Trace{}
		cur := 0
		for i := rng.Intn(400) + 100; i > 0; i-- {
			if rng.Intn(3) == 0 {
				cur = rng.Intn(n)
			} else {
				cur = (cur + rng.Intn(3)) % n
			}
			tr.Append(trace.Event{Proc: program.ProcID(cur)})
		}
		pop := popular.All(prog)
		if rng.Intn(2) == 0 {
			pop = popular.Select(prog, tr, popular.Options{Coverage: 0.8, MinCount: 2})
		}
		g := wcg.BuildFiltered(tr, pop.Contains)
		for _, cfg := range geoms {
			ctx := fmt.Sprintf("seed %d cache %d/%d", seed, cfg.SizeBytes, cfg.LineBytes)
			got, err := HKC(prog, g, pop, cfg)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			want, err := hkcOracle(prog, g, pop, cfg)
			if err != nil {
				t.Fatalf("%s: oracle: %v", ctx, err)
			}
			sameLayout(t, ctx, prog, got, want)
		}
	}
}

// On the benchmark suite, HKC must place exactly as the oracle too.
func TestHKCMatchesOracleOnSuite(t *testing.T) {
	for _, pair := range tracegen.Suite(0.3) {
		prog := pair.Bench.Prog
		tr := pair.Bench.Trace(pair.Train)
		pop := popular.Select(prog, tr, popular.Options{})
		g := wcg.BuildFiltered(tr, pop.Contains)
		got, err := HKC(prog, g, pop, cache.PaperConfig)
		if err != nil {
			t.Fatalf("%s: %v", pair.Bench.Name, err)
		}
		want, err := hkcOracle(prog, g, pop, cache.PaperConfig)
		if err != nil {
			t.Fatalf("%s: oracle: %v", pair.Bench.Name, err)
		}
		sameLayout(t, pair.Bench.Name, prog, got, want)
	}
}
