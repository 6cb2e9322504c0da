package trg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// fallbackWorkload is a program of more procedures than a TRG matrix may
// hold nodes (1,448), each of at most 48 bytes, and a trace that activates
// all but about one in twenty of them once, in random order, and then
// re-references small working sets as oracleWorkload does.
func fallbackWorkload(rng *rand.Rand) (*program.Program, *trace.Trace) {
	n := 1600 + rng.Intn(300)
	procs := make([]program.Procedure, n)
	for i := range procs {
		procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: rng.Intn(48) + 1}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	for _, p := range rng.Perm(n) {
		if rng.Intn(20) > 0 {
			tr.Append(trace.Event{Proc: program.ProcID(p)})
		}
	}
	var set []program.ProcID
	for i := 0; i < 200; i++ {
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
		tr.Append(trace.Event{Proc: p, Extent: int32(rng.Intn(prog.Size(p)) + 1)})
	}
	return prog, tr
}

// A TRG of more possible nodes than its matrix may hold counts in
// graph.EdgeCounter, keyed by node ID; it must match the oracle too,
// with every procedure a node and with a popular set of all the
// procedures the trace activates, which numbers the nodes apart from
// their IDs.
func TestBuilderFallbackMatchesOracle(t *testing.T) {
	for seed := 0; seed < trgSeeds(t); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog, tr := fallbackWorkload(rng)
		pop := popular.Select(prog, tr, popular.Options{Coverage: 1, MinCount: 1})
		for _, geom := range []struct{ cacheBytes, chunkSize int }{{64, 16}, {200, 0}} {
			for _, filter := range []*popular.Set{nil, pop} {
				for _, pairs := range []bool{false, true} {
					ctx := fmt.Sprintf("seed %d cache %d chunk %d popular %v pairs %v",
						seed, geom.cacheBytes, geom.chunkSize, filter != nil, pairs)
					opts := Options{CacheBytes: geom.cacheBytes, ChunkSize: geom.chunkSize, Popular: filter}
					b := matchOracle(t, ctx, prog, tr, opts, pairs, rng.Intn(len(tr.Events)))
					if b.sel.m != nil || b.place.m != nil {
						t.Fatalf("%s: TRGs of %d and %d nodes counted in a matrix", ctx, len(b.sel.ids), len(b.place.ids))
					}
				}
			}
		}
	}
}

// spillWorkload is a program of one to five procedures and a trace that
// repeats the previous procedure half the time, so cells grow on most
// activations.
func spillWorkload(rng *rand.Rand) (*program.Program, *trace.Trace) {
	n := rng.Intn(5) + 1
	procs := make([]program.Procedure, n)
	for i := range procs {
		procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: rng.Intn(300) + 1}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	p := program.ProcID(0)
	for i, events := 0, rng.Intn(100)+100; i < events; i++ {
		if rng.Intn(2) == 0 {
			p = program.ProcID(rng.Intn(n))
		}
		var ext int32 // 0: the whole procedure
		if rng.Intn(3) == 0 {
			ext = int32(rng.Intn(prog.Size(p)) + 1)
		}
		tr.Append(trace.Event{Proc: p, Extent: ext})
	}
	return prog, tr
}

// With the wrap limit lowered, the builder moves its matrix counts into
// 64-bit totals every few activations. The graphs just before and just
// after each hand-over must equal the oracle's, and no cell may ever
// count past the limit: at the real limit, such a cell would wrap. The
// first workload is one procedure of two chunks activated 40 times, whose
// two cells grow on every activation after the first.
func TestBuilderSpillMatchesOracle(t *testing.T) {
	defer func(l uint64) { wrapLimit = l }(wrapLimit)
	two := program.MustNew([]program.Procedure{{Name: "p", Size: 128}})
	twoTr := &trace.Trace{}
	for i := 0; i < 40; i++ {
		twoTr.Append(trace.Event{Proc: 0})
	}
	for seed := -1; seed < trgSeeds(t); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog, tr := two, twoTr
		if seed >= 0 {
			prog, tr = spillWorkload(rng)
		}
		pop := popular.Select(prog, tr, popular.Options{Coverage: 0.8, MinCount: 2})
		wrapLimit = uint64(rng.Intn(8) + 1)
		for _, cacheBytes := range []int{64, 512} {
			for _, chunkSize := range []int{64, 0} {
				for _, filter := range []*popular.Set{nil, pop} {
					for _, pairs := range []bool{false, true} {
						ctx := fmt.Sprintf("seed %d limit %d cache %d chunk %d popular %v pairs %v",
							seed, wrapLimit, cacheBytes, chunkSize, filter != nil, pairs)
						checkSpills(t, ctx, prog, tr, Options{CacheBytes: cacheBytes, ChunkSize: chunkSize, Popular: filter}, pairs)
					}
				}
			}
		}
	}
}

// checkSpills feeds tr to the builder and the oracle side by side,
// comparing their graphs around every hand-over and the builder's cells
// with the wrap limit after every event.
func checkSpills(t *testing.T, ctx string, prog *program.Program, tr *trace.Trace, opts Options, pairs bool) {
	t.Helper()
	b, err := NewBuilder(prog, opts, pairs)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	o := newOracleBuilder(prog, opts, pairs)
	spills := 0
	for i, e := range tr.Events {
		handOver := b.pending == wrapLimit && b.selIndex[e.Proc] != none
		if handOver {
			sameResult(t, fmt.Sprintf("%s before the hand-over at event %d", ctx, i), b.Result(), o.Result())
		}
		b.Observe(e)
		o.Observe(e)
		if handOver {
			spills++
			sameResult(t, fmt.Sprintf("%s after the hand-over at event %d", ctx, i), b.Result(), o.Result())
		}
		for _, c := range []*counter{&b.sel, &b.place} {
			for j, n := range c.m {
				if uint64(n) > wrapLimit {
					t.Fatalf("%s: after event %d cell %d counts %d, past the wrap limit", ctx, i, j, n)
				}
			}
		}
	}
	sameResult(t, ctx, b.Result(), o.Result())
	if pairs && !o.samePairs(b.Pairs()) {
		t.Fatalf("%s: pair database differs from the oracle", ctx)
	}
	if want := max(b.events-1, 0) / int64(wrapLimit); int64(spills) != want {
		t.Fatalf("%s: %d hand-overs in %d activations, want %d", ctx, spills, b.events, want)
	}
}

// The six paper-scale training traces, each with its popular set at the
// paper's 8 KB cache, build the same TRGs and statistics as the oracle,
// and every one of them counts in its matrices.
func TestBuilderMatchesOracleOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the six paper-scale training TRGs twice")
	}
	for _, pair := range tracegen.Suite(1.0) {
		prog, tr := pair.Bench.Prog, pair.Bench.Trace(pair.Train)
		opts := Options{CacheBytes: 8192, Popular: popular.Select(prog, tr, popular.Options{})}
		b := matchOracle(t, pair.Bench.Name, prog, tr, opts, false, len(tr.Events)/3)
		if b.sel.m == nil || b.place.m == nil {
			t.Errorf("%s: TRGs of %d and %d nodes did not count in their matrices", pair.Bench.Name, len(b.sel.ids), len(b.place.ids))
		}
	}
}

// A popular set selected for another program must be an error, in both
// directions: a smaller program's set indexed past its end on the larger
// one, and a larger program's set silently built a TRG of the wrong
// procedures on the smaller one.
func TestBuilderRejectsForeignPopularSet(t *testing.T) {
	mk := func(n int) *program.Program {
		procs := make([]program.Procedure, n)
		for i := range procs {
			procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: 64}
		}
		return program.MustNew(procs)
	}
	small, large := mk(3), mk(5)
	for _, c := range []struct {
		name     string
		prog     *program.Program
		selected *program.Program
	}{
		{"small set on large program", large, small},
		{"large set on small program", small, large},
	} {
		opts := Options{Popular: popular.All(c.selected)}
		if _, err := NewBuilder(c.prog, opts, false); err == nil {
			t.Errorf("%s: NewBuilder accepted it", c.name)
		}
		if _, err := Build(c.prog, &trace.Trace{Events: []trace.Event{{Proc: 2}}}, opts); err == nil {
			t.Errorf("%s: Build accepted it", c.name)
		}
	}
}
