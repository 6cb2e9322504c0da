package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
	"repro/internal/wcg"
)

var cfg = cache.Config{SizeBytes: 128, LineBytes: 32, Assoc: 1} // 4 lines

func TestTRGConflictCountsOverlappingChunks(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 32},
		{Name: "b", Size: 32},
	})
	tr := trace.MustFromNames(prog, "a", "b", "a", "b", "a")
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	// a..a has b between (twice), b..b has a between (once): W(a,b) = 3.
	overlapping := program.NewLayout(prog)
	overlapping.SetAddr(0, 0)
	overlapping.SetAddr(1, 128) // same line as a
	if got := TRGConflict(overlapping, res.Place, res.Chunker, cfg); got != 3 {
		t.Errorf("overlapping TRGConflict = %d, want 3", got)
	}
	disjoint := program.DefaultLayout(prog)
	if got := TRGConflict(disjoint, res.Place, res.Chunker, cfg); got != 0 {
		t.Errorf("disjoint TRGConflict = %d, want 0", got)
	}
}

func TestWCGConflictCountsOverlappingProcs(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 64}, // 2 lines
		{Name: "b", Size: 64},
	})
	tr := trace.MustFromNames(prog, "a", "b", "a")
	g := wcg.Build(tr)

	full := program.NewLayout(prog)
	full.SetAddr(0, 0)
	full.SetAddr(1, 128) // both lines overlap
	partial := program.NewLayout(prog)
	partial.SetAddr(0, 0)
	partial.SetAddr(1, 128+32) // one line overlaps
	disjoint := program.DefaultLayout(prog)

	// The metric counts each overlapping pair once regardless of overlap
	// extent (WCGs have no notion of partial conflict).
	if got := WCGConflict(full, g, cfg); got != 2 {
		t.Errorf("full overlap = %d, want W(a,b)=2", got)
	}
	if got := WCGConflict(partial, g, cfg); got != 2 {
		t.Errorf("partial overlap = %d, want 2", got)
	}
	if got := WCGConflict(disjoint, g, cfg); got != 0 {
		t.Errorf("disjoint = %d, want 0", got)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ysPos := []float64{2, 4, 6, 8, 10}
	ysNeg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, ysPos); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect positive r = %v", r)
	}
	if r := Pearson(xs, ysNeg); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect negative r = %v", r)
	}
	if r := Pearson(xs, []float64{3, 3, 3, 3, 3}); !math.IsNaN(r) {
		t.Errorf("zero-variance r = %v, want NaN", r)
	}
	if r := Pearson([]float64{1}, []float64{2}); !math.IsNaN(r) {
		t.Errorf("single-point r = %v, want NaN", r)
	}
	if r := Pearson(xs, xs[:3]); !math.IsNaN(r) {
		t.Errorf("length-mismatch r = %v, want NaN", r)
	}
}

// The TRG metric must correlate strongly with simulated misses; this is a
// small-scale version of Figure 6's claim.
func TestTRGMetricCorrelatesWithMisses(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 32},
		{Name: "b", Size: 32},
		{Name: "c", Size: 32},
		{Name: "d", Size: 32},
	})
	tr := &trace.Trace{}
	for i := 0; i < 100; i++ {
		for p := 0; p < 4; p++ {
			tr.Append(trace.Event{Proc: program.ProcID(p)})
		}
	}
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	var ms, cs []float64
	// Enumerate layouts with zero, one, or two overlapping *pairs*. (With
	// three or more procedures on one line the pairwise metric grows
	// quadratically while misses grow linearly — the Figure 6 methodology
	// moves 0-50 procedures of a placed layout, which keeps overlaps mostly
	// pairwise, and so does this test.)
	for _, mask := range []int{0, 1, 2, 4, 5} {
		l := program.NewLayout(prog)
		addr := 0
		for p := 0; p < 4; p++ {
			l.SetAddr(program.ProcID(p), addr)
			addr += 32
			if p < 3 && mask&(1<<p) != 0 {
				addr += 96 // push next proc a full cache period ahead
			}
		}
		st, err := cache.RunTrace(cfg, l, tr)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, float64(st.Misses))
		cs = append(cs, float64(TRGConflict(l, res.Place, res.Chunker, cfg)))
	}
	if r := Pearson(cs, ms); math.IsNaN(r) || r < 0.9 {
		t.Errorf("TRG metric correlation r = %v, want >= 0.9", r)
	}
}

// layoutAt places each procedure of prog at the given byte address.
func layoutAt(prog *program.Program, addrs ...int) *program.Layout {
	l := program.NewLayout(prog)
	for p, a := range addrs {
		l.SetAddr(program.ProcID(p), a)
	}
	return l
}

// TestTRGConflictTraps pins the line-run derivation on the cases where a
// chunk's run is not one line per chunk byte range: unaligned starts,
// procedures and chunks longer than the cache, and chunks that hold no
// line start. Each value is worked out by hand and must also match the
// line-by-line oracle.
func TestTRGConflictTraps(t *testing.T) {
	cases := []struct {
		name  string
		sizes []int
		addrs []int
		chunk int
		edges [][3]int64 // chunk, chunk, weight
		want  int64
	}{
		// a (64 B at byte 16) covers lines 0–2: line 0 holds its byte 0 and
		// line 1 its byte 16 (chunk a0), line 2 its byte 48 (chunk a1). b
		// sits on line 2 and c on line 1.
		{"unaligned start", []int{64, 32, 32}, []int{16, 128 + 64, 128 + 32}, 32,
			[][3]int64{{0, 2, 5}, {1, 2, 7}, {0, 3, 11}, {1, 3, 13}}, 7 + 11},
		// a (256 B) covers every line twice; with 64-byte chunks a0 and a2
		// share lines 0–1, a1 and a3 lines 2–3, and b on line 1 meets a0
		// and a2 once each.
		{"procedure larger than the cache", []int{256, 32}, []int{0, 256 + 32}, 64,
			[][3]int64{{0, 2, 3}, {1, 3, 5}, {0, 1, 100}, {0, 4, 7}, {2, 4, 11}, {1, 4, 13}}, 2*3 + 2*5 + 7 + 11},
		// One 256-byte chunk holds all 8 lines of a, each line twice: b on
		// line 0 pairs with it twice.
		{"chunk run reaches the period", []int{256, 32}, []int{0, 128}, 256,
			[][3]int64{{0, 1, 9}}, 2 * 9},
		// With 16-byte chunks only a0 and a2 hold line starts (bytes 0 and
		// 32); a1 and a3 hold none, so their edges add nothing.
		{"chunk holds no line start", []int{64, 32}, []int{0, 128}, 16,
			[][3]int64{{0, 4, 3}, {1, 4, 100}, {3, 4, 100}, {2, 4, 1000}}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			procs := make([]program.Procedure, len(c.sizes))
			for i, sz := range c.sizes {
				procs[i] = program.Procedure{Name: string(rune('a' + i)), Size: sz}
			}
			prog := program.MustNew(procs)
			chunker := program.MustNewChunker(prog, c.chunk)
			g := graph.New()
			for _, e := range c.edges {
				g.AddEdgeWeight(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2])
			}
			l := layoutAt(prog, c.addrs...)
			if got := TRGConflict(l, g, chunker, cfg); got != c.want {
				t.Errorf("TRGConflict = %d, want %d", got, c.want)
			}
			if got := trgConflictOracle(l, g, chunker, cfg); got != c.want {
				t.Errorf("oracle = %d, want %d", got, c.want)
			}
		})
	}
}

// TestWCGConflictTraps: a pair counts once however many lines it shares,
// and procedure arcs wrap past line 0.
func TestWCGConflictTraps(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "big", Size: 300}, // 10 lines: every line of the 4-line cache
		{Name: "wrap", Size: 64}, // lines 3 and 0
		{Name: "one", Size: 32},
		{Name: "two", Size: 32},
	})
	g := graph.New()
	g.AddEdgeWeight(0, 1, 1)
	g.AddEdgeWeight(1, 2, 10)
	g.AddEdgeWeight(1, 3, 100)
	g.AddEdgeWeight(2, 3, 1000)
	// wrap starts on line 3; one sits on line 0 (inside wrap's arc), two on
	// line 1 (outside it). big shares both of wrap's lines, and their edge
	// counts once.
	l := layoutAt(prog, 0, 512+96, 1024, 1024+32+128)
	if got, want := WCGConflict(l, g, cfg), int64(1+10); got != want {
		t.Errorf("WCGConflict = %d, want %d", got, want)
	}
	// wrap starts on line 3, and two, 64 bytes from byte 16 of line 2,
	// covers lines 2, 3 and 0: only wrap's start lies inside the other arc.
	prog2 := program.MustNew([]program.Procedure{{Name: "wrap", Size: 64}, {Name: "two", Size: 64}})
	g2 := graph.New()
	g2.AddEdgeWeight(0, 1, 7)
	if got := WCGConflict(layoutAt(prog2, 96, 128+64+16), g2, cfg); got != 7 {
		t.Errorf("WCGConflict = %d, want 7", got)
	}
	if got := WCGConflict(layoutAt(prog2, 96, 128+32), g2, cfg); got != 0 {
		t.Errorf("disjoint arcs: WCGConflict = %d, want 0", got)
	}
}

// TestConflictMetricsMatchOracles holds both metrics to the line-by-line
// oracles on random programs, layouts, chunk sizes and geometries, with
// random graphs over every chunk and procedure: unaligned, overlapping and
// larger-than-cache placements included.
func TestConflictMetricsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		lineBytes := 8 << rng.Intn(4)
		geom := cache.Config{SizeBytes: lineBytes * (rng.Intn(16) + 1), LineBytes: lineBytes, Assoc: 1}
		n := rng.Intn(12) + 1
		procs := make([]program.Procedure, n)
		for i := range procs {
			procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: rng.Intn(3*geom.SizeBytes) + 1}
		}
		prog := program.MustNew(procs)
		chunker := program.MustNewChunker(prog, 4<<rng.Intn(7))
		l := program.NewLayout(prog)
		for p := 0; p < n; p++ {
			l.SetAddr(program.ProcID(p), rng.Intn(8*geom.SizeBytes))
		}
		placeG, wcgG := graph.New(), graph.New()
		nc := chunker.NumChunks()
		for e := rng.Intn(4 * nc); e > 0; e-- {
			placeG.AddEdgeWeight(graph.NodeID(rng.Intn(nc)), graph.NodeID(rng.Intn(nc)), rng.Int63n(1000)+1)
		}
		for e := rng.Intn(3 * n); e > 0; e-- {
			wcgG.AddEdgeWeight(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), rng.Int63n(1000)+1)
		}
		if got, want := TRGConflict(l, placeG, chunker, geom), trgConflictOracle(l, placeG, chunker, geom); got != want {
			t.Fatalf("trial %d: TRGConflict = %d, oracle %d", trial, got, want)
		}
		if got, want := WCGConflict(l, wcgG, geom), wcgConflictOracle(l, wcgG, geom); got != want {
			t.Fatalf("trial %d: WCGConflict = %d, oracle %d", trial, got, want)
		}
	}
}
