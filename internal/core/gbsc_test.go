package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
)

// tinyCache is the 3-line direct-mapped cache of the paper's Figure 1
// example ("we have only three locations in our direct-mapped cache").
var tinyCache = cache.Config{SizeBytes: 96, LineBytes: 32, Assoc: 1}

func exampleProgram(t *testing.T) *program.Program {
	t.Helper()
	return program.MustNew([]program.Procedure{
		{Name: "M", Size: 32},
		{Name: "X", Size: 32},
		{Name: "Y", Size: 32},
		{Name: "Z", Size: 32},
	})
}

// trace2 is Figure 1's trace #2: cond true 40 times, then false 40 times.
func trace2(prog *program.Program) *trace.Trace {
	tr := &trace.Trace{}
	appendIter := func(leaf string) {
		for _, n := range []string{"M", leaf, "M", "Z"} {
			id, _ := prog.Lookup(n)
			tr.Append(trace.Event{Proc: id})
		}
	}
	for i := 0; i < 40; i++ {
		appendIter("X")
	}
	for i := 0; i < 40; i++ {
		appendIter("Y")
	}
	return tr
}

// trace1 is Figure 1's trace #1: cond alternates.
func trace1(prog *program.Program) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < 80; i++ {
		leaf := "X"
		if i%2 == 1 {
			leaf = "Y"
		}
		for _, n := range []string{"M", leaf, "M", "Z"} {
			id, _ := prog.Lookup(n)
			tr.Append(trace.Event{Proc: id})
		}
	}
	return tr
}

func buildAndPlace(t *testing.T, prog *program.Program, tr *trace.Trace, cfg cache.Config) *program.Layout {
	t.Helper()
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Place(prog, res, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("invalid layout: %v", err)
	}
	return l
}

// The paper's motivating example: for trace #2, X and Y should share a cache
// line and Z should get its own.
func TestFigure1Trace2Placement(t *testing.T) {
	prog := exampleProgram(t)
	l := buildAndPlace(t, prog, trace2(prog), tinyCache)

	line := func(name string) int {
		id, _ := prog.Lookup(name)
		return l.StartLine(id, tinyCache.LineBytes, tinyCache.NumLines())
	}
	if line("X") != line("Y") {
		t.Errorf("trace #2: X (line %d) and Y (line %d) should share a cache line", line("X"), line("Y"))
	}
	for _, other := range []string{"M", "X", "Y"} {
		if line("Z") == line(other) {
			t.Errorf("trace #2: Z shares line %d with %s", line("Z"), other)
		}
	}
	if line("M") == line("X") {
		t.Error("trace #2: M shares a line with X/Y")
	}
}

// For trace #1, X and Y alternate, so they must NOT share a line; the
// resulting layouts for the two traces differ even though the WCG is
// identical.
func TestFigure1Trace1Placement(t *testing.T) {
	prog := exampleProgram(t)
	l := buildAndPlace(t, prog, trace1(prog), tinyCache)
	x, _ := prog.Lookup("X")
	y, _ := prog.Lookup("Y")
	lx := l.StartLine(x, tinyCache.LineBytes, tinyCache.NumLines())
	ly := l.StartLine(y, tinyCache.LineBytes, tinyCache.NumLines())
	if lx == ly {
		t.Error("trace #1: X and Y share a cache line despite interleaving")
	}
}

// The layout trained on each trace should never lose to the other layout on
// its own trace, and the trace #2 layout (X,Y sharing) must win strictly on
// trace #2 — the end-to-end confirmation of the Figure 1 discussion. (On
// trace #1 every assignment of the four single-line procedures to three
// lines costs the same two conflict misses per condition flip, so a tie is
// the correct outcome there.)
func TestFigure1MissRatesCrossover(t *testing.T) {
	prog := exampleProgram(t)
	t1, t2 := trace1(prog), trace2(prog)
	l1 := buildAndPlace(t, prog, t1, tinyCache)
	l2 := buildAndPlace(t, prog, t2, tinyCache)

	mr := func(l *program.Layout, tr *trace.Trace) float64 {
		m, err := cache.MissRate(tinyCache, l, tr)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if mr(l1, t1) > mr(l2, t1) {
		t.Errorf("trace1: own layout %.4f worse than trace2 layout %.4f", mr(l1, t1), mr(l2, t1))
	}
	if mr(l2, t2) >= mr(l1, t2) {
		t.Errorf("trace2: own layout %.4f not better than trace1 layout %.4f", mr(l2, t2), mr(l1, t2))
	}
}

// Section 4.2: merging two single-procedure nodes whose total size fits in
// the cache yields the PH chain — the second procedure starts on the first
// empty line after the first.
func TestMergeEquivalentToPHChainForSmallPair(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "p", Size: 96}, // 3 lines
		{Name: "q", Size: 64}, // 2 lines
	})
	tr := &trace.Trace{}
	for i := 0; i < 20; i++ {
		tr.Append(trace.Event{Proc: 0})
		tr.Append(trace.Event{Proc: 1})
	}
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1} // 8 lines
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Place(prog, res, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr(0) != 0 || l.Addr(1) != 96 {
		t.Errorf("addrs = %d,%d, want 0,96 (adjacent chain)", l.Addr(0), l.Addr(1))
	}
}

// Chunking lets GBSC align procedures larger than the cache: two 2-cache
// sized procedures whose hot chunks interleave should have those chunks on
// disjoint lines.
func TestLargeProcedureChunkAlignment(t *testing.T) {
	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 1} // 16 lines
	prog := program.MustNew([]program.Procedure{
		{Name: "big1", Size: 1024}, // 2x cache
		{Name: "big2", Size: 1024},
	})
	// Only the first 128 bytes of each procedure are hot and they
	// interleave tightly.
	tr := &trace.Trace{}
	for i := 0; i < 50; i++ {
		tr.Append(trace.Event{Proc: 0, Extent: 128})
		tr.Append(trace.Event{Proc: 1, Extent: 128})
	}
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Place(prog, res, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The hot prefixes (4 lines each) must not overlap in the cache.
	n := cfg.NumLines()
	s1 := l.StartLine(0, cfg.LineBytes, n)
	s2 := l.StartLine(1, cfg.LineBytes, n)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if (s1+a)%n == (s2+b)%n {
				t.Fatalf("hot prefixes overlap: lines %d and %d", (s1+a)%n, (s2+b)%n)
			}
		}
	}
	st, err := cache.RunTrace(cfg, l, tr)
	if err != nil {
		t.Fatal(err)
	}
	// After cold misses the hot prefixes never conflict: 8 cold misses.
	if st.Misses > 8 {
		t.Errorf("misses = %d, want <= 8 (no conflicts between hot prefixes)", st.Misses)
	}
}

func TestPlaceRespectsPopularSet(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "hot1", Size: 64},
		{Name: "hot2", Size: 64},
		{Name: "cold", Size: 64},
	})
	tr := &trace.Trace{}
	for i := 0; i < 50; i++ {
		tr.Append(trace.Event{Proc: 0})
		tr.Append(trace.Event{Proc: 1})
	}
	tr.Append(trace.Event{Proc: 2})
	pop := popular.Select(prog, tr, popular.Options{Coverage: 0.9, MinCount: 2})
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: 8192, Popular: pop})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Place(prog, res, pop, cache.PaperConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// All three procedures must be placed somewhere, including the cold one.
	if l.Extent() < prog.TotalSize() {
		t.Errorf("extent %d < total size %d", l.Extent(), prog.TotalSize())
	}
}

func TestPlaceAssocRequiresSetAssociativity(t *testing.T) {
	prog := program.MustNew([]program.Procedure{{Name: "a", Size: 32}})
	tr := trace.MustFromNames(prog, "a")
	res, db, err := trg.BuildPairs(prog, tr, trg.Options{CacheBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceAssoc(prog, res, db, nil, cache.PaperConfig); err == nil {
		t.Error("PlaceAssoc accepted direct-mapped config")
	}
	twoWay := cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 2}
	if _, err := PlaceAssoc(prog, res, nil, nil, twoWay); err == nil {
		t.Error("PlaceAssoc accepted nil pair database")
	}
	// A database over another, larger program names chunks this one lacks.
	foreign := trg.NewPairDB()
	foreign.Add(0, 1, 2)
	if _, err := PlaceAssoc(prog, res, foreign, nil, twoWay); err == nil {
		t.Error("PlaceAssoc accepted a pair database over another program")
	}
	if _, err := PlaceAssoc(prog, res, db, nil, twoWay); err != nil {
		t.Errorf("PlaceAssoc: %v", err)
	}
}

func TestPlaceAssocTwoWay(t *testing.T) {
	// Three single-line procedures, all interleaving pairwise AND as
	// triples: in a 2-way cache, any two can share a set but all three in
	// one set thrashes. Cache: 128B, 32B lines, 2-way → 2 sets.
	cfg := cache.Config{SizeBytes: 128, LineBytes: 32, Assoc: 2}
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 32},
		{Name: "b", Size: 32},
		{Name: "c", Size: 32},
	})
	tr := &trace.Trace{}
	for i := 0; i < 60; i++ {
		for p := 0; p < 3; p++ {
			tr.Append(trace.Event{Proc: program.ProcID(p)})
		}
	}
	res, db, err := trg.BuildPairs(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	l, err := PlaceAssoc(prog, res, db, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// The three procedures must not all land in the same set.
	sets := map[int]int{}
	for p := 0; p < 3; p++ {
		set := (l.Addr(program.ProcID(p)) / cfg.LineBytes) % cfg.NumSets()
		sets[set]++
	}
	for set, n := range sets {
		if n == 3 {
			t.Errorf("all three procedures in set %d", set)
		}
	}
	st, err := cache.RunTrace(cfg, l, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses > 3 {
		t.Errorf("misses = %d, want 3 cold misses only", st.Misses)
	}
}

// Property: GBSC always yields a valid, complete layout for random programs
// and traces.
func TestPlaceAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 2
		procs := make([]program.Procedure, n)
		for i := range procs {
			procs[i] = program.Procedure{
				Name: "p" + string(rune('a'+i)),
				Size: rng.Intn(2000) + 1,
			}
		}
		prog := program.MustNew(procs)
		tr := &trace.Trace{}
		for i := 0; i < 400; i++ {
			tr.Append(trace.Event{Proc: program.ProcID(rng.Intn(n))})
		}
		cfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}
		res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes})
		if err != nil {
			return false
		}
		l, err := Place(prog, res, nil, cfg)
		if err != nil {
			return false
		}
		return l.Validate() == nil && l.Extent() >= prog.TotalSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
