package trg

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
)

// The online builder must produce exactly the graphs the batch Build does.
func TestOnlineMatchesBatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		procs := make([]program.Procedure, n)
		for i := range procs {
			procs[i] = program.Procedure{Name: string(rune('a' + i)), Size: rng.Intn(900) + 1}
		}
		prog := program.MustNew(procs)
		tr := &trace.Trace{}
		for i := 0; i < 400; i++ {
			p := program.ProcID(rng.Intn(n))
			tr.Append(trace.Event{Proc: p, Extent: int32(rng.Intn(prog.Size(p)) + 1)})
		}
		opts := Options{CacheBytes: 512, ChunkSize: 128}

		batch, err := Build(prog, tr, opts)
		if err != nil {
			return false
		}
		online, err := NewBuilder(prog, opts, false)
		if err != nil {
			return false
		}
		for _, e := range tr.Events {
			online.Observe(e)
		}
		got := online.Result()

		if got.AvgQProcs != batch.AvgQProcs {
			return false
		}
		if len(got.Select.Edges()) != len(batch.Select.Edges()) ||
			len(got.Place.Edges()) != len(batch.Place.Edges()) {
			return false
		}
		for _, e := range batch.Select.Edges() {
			if got.Select.Weight(e.U, e.V) != e.W {
				return false
			}
		}
		for _, e := range batch.Place.Edges() {
			if got.Place.Weight(e.U, e.V) != e.W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestOnlinePairsMatchBatch(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "p", Size: 32},
		{Name: "r", Size: 32},
		{Name: "s", Size: 32},
	})
	tr := trace.MustFromNames(prog, "p", "r", "s", "p", "r", "p", "s", "p")
	opts := Options{CacheBytes: 8192}

	_, batchDB, err := BuildPairs(prog, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(prog, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		b.Observe(e)
	}
	onlineDB := b.Pairs()
	if onlineDB.Len() != batchDB.Len() {
		t.Fatalf("pair db sizes differ: %d vs %d", onlineDB.Len(), batchDB.Len())
	}
	for p := BlockID(0); p < 3; p++ {
		for r := BlockID(0); r < 3; r++ {
			for s := BlockID(0); s < 3; s++ {
				if onlineDB.Count(p, r, s) != batchDB.Count(p, r, s) {
					t.Errorf("D(%d,{%d,%d}) differs", p, r, s)
				}
			}
		}
	}
}

func TestBuilderEventsCountsFiltered(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 32},
		{Name: "b", Size: 32},
	})
	b, err := NewBuilder(prog, Options{CacheBytes: 1024}, false)
	if err != nil {
		t.Fatal(err)
	}
	b.Observe(trace.Event{Proc: 0})
	b.Observe(trace.Event{Proc: 1})
	b.Observe(trace.Event{Proc: 0})
	if b.Events() != 3 {
		t.Errorf("Events = %d, want 3", b.Events())
	}
}

func TestBuilderRejectsBadOptions(t *testing.T) {
	prog := program.MustNew([]program.Procedure{{Name: "a", Size: 32}})
	if _, err := NewBuilder(prog, Options{CacheBytes: -1}, false); err == nil {
		t.Error("NewBuilder accepted negative cache size")
	}
	if _, err := NewBuilder(prog, Options{ChunkSize: -1}, false); err == nil {
		t.Error("NewBuilder accepted negative chunk size")
	}
	// A pair-database key holds block IDs below maxPairBlocks: one chunk
	// more must be an error, never a silent key collision.
	for _, chunks := range []int{maxPairBlocks, maxPairBlocks + 1} {
		big := program.MustNew([]program.Procedure{{Name: "big", Size: chunks}})
		opts := Options{ChunkSize: 1}
		if _, err := NewBuilder(big, opts, false); err != nil {
			t.Errorf("%d chunks without pairs: %v", chunks, err)
		}
		_, err := NewBuilder(big, opts, true)
		if tooMany := chunks > maxPairBlocks; (err != nil) != tooMany {
			t.Errorf("%d chunks with pairs: err = %v, want an error %v", chunks, err, tooMany)
		}
	}
}

// Pairs is the builder's live database, not a snapshot: later Observe
// calls keep counting into it, while its Rows are a snapshot.
func TestBuilderPairsTrackLaterObserve(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "p", Size: 32},
		{Name: "r", Size: 32},
		{Name: "s", Size: 32},
	})
	b, err := NewBuilder(prog, Options{CacheBytes: 8192}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []program.ProcID{0, 1, 2} {
		b.Observe(trace.Event{Proc: p})
	}
	db := b.Pairs()
	before, err := db.Rows(3)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 0 || len(before[0]) != 0 {
		t.Fatalf("pairs before any repeat: Len %d, row %v", db.Len(), before[0])
	}
	b.Observe(trace.Event{Proc: 0}) // p (r s) p
	if got := db.Count(0, 1, 2); got != 1 || db.Len() != 1 {
		t.Errorf("after p r s p: D(p,{r,s}) = %d with %d entries, want 1 with 1", got, db.Len())
	}
	after, err := db.Rows(3)
	if err != nil {
		t.Fatal(err)
	}
	if row := after[0]; len(row) != 1 || row[0] != (PairEntry{R: 1, S: 2, N: 1}) {
		t.Errorf("row of p = %v, want [{1 2 1}]", row)
	}
	if len(before[0]) != 0 {
		t.Errorf("earlier Rows changed: %v", before[0])
	}
}

// Result can be snapshotted mid-stream; later observations extend it.
func TestBuilderIncrementalSnapshots(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 32},
		{Name: "b", Size: 32},
	})
	b, err := NewBuilder(prog, Options{CacheBytes: 1024}, false)
	if err != nil {
		t.Fatal(err)
	}
	b.Observe(trace.Event{Proc: 0})
	b.Observe(trace.Event{Proc: 1})
	mid := b.Result()
	if w := mid.Select.Weight(0, 1); w != 0 {
		t.Errorf("premature edge weight %d", w)
	}
	b.Observe(trace.Event{Proc: 0}) // a...a with b between
	if w := b.Result().Select.Weight(0, 1); w != 1 {
		t.Errorf("edge weight after third event = %d, want 1", w)
	}
	// An earlier snapshot is independent of later observations.
	if w := mid.Select.Weight(0, 1); w != 0 {
		t.Errorf("earlier snapshot changed: edge weight %d, want 0", w)
	}
	if w := mid.Place.Weight(0, 1); w != 0 {
		t.Errorf("earlier snapshot changed: place edge weight %d, want 0", w)
	}
}

// trgSeeds is the number of random programs the oracle differentials
// run. TRG_SEEDS raises it (CI runs 500 under -race); the default keeps
// `go test` quick.
func trgSeeds(t *testing.T) int {
	if s := os.Getenv("TRG_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad TRG_SEEDS %q", s)
		}
		return n
	}
	return 12
}

// oracleWorkload is a random program and a phased trace over it: each
// phase re-references a small working set, with occasional references
// anywhere, so Q sees short and long re-reference distances, evictions
// and procedures larger than the bound.
func oracleWorkload(rng *rand.Rand) (*program.Program, *trace.Trace) {
	n := rng.Intn(30) + 2
	procs := make([]program.Procedure, n)
	for i := range procs {
		size := rng.Intn(400) + 1
		if rng.Intn(8) == 0 {
			size = rng.Intn(3000) + 400
		}
		procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: size}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	var set []program.ProcID
	for i, events := 0, rng.Intn(250)+50; i < events; i++ {
		if i%40 == 0 {
			set = set[:0]
			for k := rng.Intn(6) + 1; k > 0; k-- {
				set = append(set, program.ProcID(rng.Intn(n)))
			}
		}
		p := set[rng.Intn(len(set))]
		if rng.Intn(10) == 0 {
			p = program.ProcID(rng.Intn(n))
		}
		var ext int32 // 0: the whole procedure
		if rng.Intn(3) > 0 {
			ext = int32(rng.Intn(prog.Size(p)) + 1)
		}
		tr.Append(trace.Event{Proc: p, Extent: ext})
	}
	return prog, tr
}

// sameResult fails the test unless got and want hold identical graphs
// (node sets, edges with weights) and the same average Q population.
func sameResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Select.Nodes(), want.Select.Nodes()) ||
		!reflect.DeepEqual(got.Select.Edges(), want.Select.Edges()) {
		t.Fatalf("%s: TRG_select differs from the oracle", ctx)
	}
	if !reflect.DeepEqual(got.Place.Nodes(), want.Place.Nodes()) ||
		!reflect.DeepEqual(got.Place.Edges(), want.Place.Edges()) {
		t.Fatalf("%s: TRG_place differs from the oracle", ctx)
	}
	if got.AvgQProcs != want.AvgQProcs {
		t.Fatalf("%s: AvgQProcs = %v, oracle %v", ctx, got.AvgQProcs, want.AvgQProcs)
	}
}

// The builder must reproduce the Section 3 oracle exactly: graphs, build
// statistics and pair database, at the end of the trace and in every
// mid-stream snapshot, across cache and chunk sizes, with the popular
// filter and pair tracking each on and off. Snapshots taken mid-stream
// must still match the oracle's graphs at that point once the whole
// trace has been observed. These programs are small enough that both
// TRGs count in their matrices.
func TestBuilderMatchesOracle(t *testing.T) {
	for seed := 0; seed < trgSeeds(t); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog, tr := oracleWorkload(rng)
		pop := popular.Select(prog, tr, popular.Options{Coverage: 0.8, MinCount: 2})
		for _, cacheBytes := range []int{64, 200, 512} {
			for _, chunkSize := range []int{32, 100, 0} {
				for _, filter := range []*popular.Set{nil, pop} {
					for _, pairs := range []bool{false, true} {
						ctx := fmt.Sprintf("seed %d cache %d chunk %d popular %v pairs %v",
							seed, cacheBytes, chunkSize, filter != nil, pairs)
						opts := Options{CacheBytes: cacheBytes, ChunkSize: chunkSize, Popular: filter}
						b := matchOracle(t, ctx, prog, tr, opts, pairs, rng.Intn(len(tr.Events)))
						if b.sel.m == nil || b.place.m == nil {
							t.Fatalf("%s: a TRG of %d or %d nodes left its matrix", ctx, len(b.sel.ids), len(b.place.ids))
						}
					}
				}
			}
		}
	}
}

// matchOracle feeds tr to the builder and to the oracle side by side and
// fails the test unless they agree: the graphs at the end and in
// snapshots taken before events cut and 2·cut, the build statistics and
// the pair database. It returns the builder.
func matchOracle(t *testing.T, ctx string, prog *program.Program, tr *trace.Trace, opts Options, pairs bool, cut int) *Builder {
	t.Helper()
	b, err := NewBuilder(prog, opts, pairs)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	o := newOracleBuilder(prog, opts, pairs)
	var snaps, oracleSnaps []*Result
	for i, e := range tr.Events {
		if i == cut || i == 2*cut {
			snaps = append(snaps, b.Result())
			// The oracle's graphs are live: copy them.
			r := o.Result()
			oracleSnaps = append(oracleSnaps, &Result{
				Select: r.Select.Clone(), Place: r.Place.Clone(),
				Chunker: r.Chunker, AvgQProcs: r.AvgQProcs,
			})
		}
		b.Observe(e)
		o.Observe(e)
	}
	sameResult(t, ctx, b.Result(), o.Result())
	for i := range snaps {
		sameResult(t, fmt.Sprintf("%s snapshot %d", ctx, i), snaps[i], oracleSnaps[i])
	}
	if b.BuildStats() != o.stats {
		t.Fatalf("%s: BuildStats = %+v, oracle %+v", ctx, b.BuildStats(), o.stats)
	}
	if pairs && !o.samePairs(b.Pairs()) {
		t.Fatalf("%s: pair database differs from the oracle (%d vs %d entries)",
			ctx, b.Pairs().Len(), len(o.pairs))
	}
	return b
}

// Once every edge and node of a trace has been counted, observing it
// again allocates nothing: Q, the counters and the node lists are all
// reused, whether the TRGs count in their matrices or, for a program of
// more blocks than a matrix may hold, in the flat table.
func TestObserveAllocatesNothingInSteadyState(t *testing.T) {
	prog, tr := oracleWorkload(rand.New(rand.NewSource(5)))
	pop := popular.Select(prog, tr, popular.Options{Coverage: 0.8, MinCount: 2})
	bigProg, bigTr := fallbackWorkload(rand.New(rand.NewSource(5)))
	for _, c := range []struct {
		name   string
		prog   *program.Program
		tr     *trace.Trace
		filter *popular.Set
		dense  bool
	}{
		{"all procedures", prog, tr, nil, true},
		{"popular", prog, tr, pop, true},
		{"fallback", bigProg, bigTr, nil, false},
	} {
		b, err := NewBuilder(c.prog, Options{CacheBytes: 256, ChunkSize: 64, Popular: c.filter}, false)
		if err != nil {
			t.Fatal(err)
		}
		if (b.sel.m != nil) != c.dense || (b.place.m != nil) != c.dense {
			t.Fatalf("%s: matrices in use %v and %v, want %v", c.name, b.sel.m != nil, b.place.m != nil, c.dense)
		}
		pass := func() {
			for _, e := range c.tr.Events {
				b.Observe(e)
			}
		}
		pass()
		pass()
		if n := testing.AllocsPerRun(5, pass); n != 0 {
			t.Errorf("%s: Observe allocated %v times per pass in steady state", c.name, n)
		}
	}
}
