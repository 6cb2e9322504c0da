package trg

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
)

func TestBuildPopularFilter(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "hot1", Size: 64},
		{Name: "hot2", Size: 64},
		{Name: "cold", Size: 64},
	})
	tr := &trace.Trace{}
	h1, _ := prog.Lookup("hot1")
	h2, _ := prog.Lookup("hot2")
	c, _ := prog.Lookup("cold")
	for i := 0; i < 50; i++ {
		tr.Append(trace.Event{Proc: h1})
		tr.Append(trace.Event{Proc: h2})
	}
	tr.Append(trace.Event{Proc: c})

	pop := popular.Select(prog, tr, popular.Options{Coverage: 0.9, MinCount: 2})
	if pop.Contains(c) {
		t.Fatal("cold procedure classified popular")
	}
	res, err := Build(prog, tr, Options{CacheBytes: 1024, Popular: pop})
	if err != nil {
		t.Fatal(err)
	}
	if res.Select.HasNode(graph.NodeID(c)) {
		t.Error("TRG_select contains unpopular procedure")
	}
	if res.Select.Weight(graph.NodeID(h1), graph.NodeID(h2)) == 0 {
		t.Error("TRG_select missing hot1-hot2 interleaving edge")
	}
}

func TestBuildChunkGranularity(t *testing.T) {
	// A 700-byte procedure (3 chunks of 256) alternating with a small one:
	// TRG_place must have chunk-level nodes and edges.
	prog := program.MustNew([]program.Procedure{
		{Name: "big", Size: 700},
		{Name: "small", Size: 64},
	})
	tr := &trace.Trace{}
	b, _ := prog.Lookup("big")
	s, _ := prog.Lookup("small")
	for i := 0; i < 10; i++ {
		tr.Append(trace.Event{Proc: b})
		tr.Append(trace.Event{Proc: s})
	}
	res, err := Build(prog, tr, Options{CacheBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Place.NumNodes(); got != 4 {
		t.Errorf("TRG_place nodes = %d, want 4 (3 big chunks + 1 small)", got)
	}
	smallChunk := graph.NodeID(res.Chunker.FirstChunk(s))
	bigFirst := graph.NodeID(res.Chunker.FirstChunk(b))
	// small interleaves with every chunk of big.
	for i := graph.NodeID(0); i < 3; i++ {
		if res.Place.Weight(smallChunk, bigFirst+i) == 0 {
			t.Errorf("TRG_place missing edge small-bigChunk%d", i)
		}
	}
	// Consecutive chunks of big interleave through small? They interleave
	// with each other within one activation only via the next activation:
	// chunk0 ... chunk2 small chunk0: chunk2 and small are between the two
	// chunk0 references.
	if res.Place.Weight(bigFirst, bigFirst+2) == 0 {
		t.Error("TRG_place missing intra-procedure chunk edge")
	}
	if res.Select.NumNodes() != 2 {
		t.Errorf("TRG_select nodes = %d, want 2", res.Select.NumNodes())
	}
}

func TestBuildAvgQProcs(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 32},
		{Name: "b", Size: 32},
	})
	tr := trace.MustFromNames(prog, "a", "b", "a", "b")
	res, err := Build(prog, tr, Options{CacheBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	// Q lengths after each step: 1,2,2,2 → avg 1.75.
	if res.AvgQProcs != 1.75 {
		t.Errorf("AvgQProcs = %v, want 1.75", res.AvgQProcs)
	}
}

func TestBuildValidatesOptions(t *testing.T) {
	prog := program.MustNew([]program.Procedure{{Name: "a", Size: 32}})
	tr := trace.MustFromNames(prog, "a")
	if _, err := Build(prog, tr, Options{CacheBytes: -5}); err == nil {
		t.Error("Build accepted negative cache size")
	}
	if _, err := Build(prog, tr, Options{ChunkSize: -1}); err == nil {
		t.Error("Build accepted negative chunk size")
	}
}

func TestPairDB(t *testing.T) {
	db := NewPairDB()
	db.Add(1, 3, 2)
	db.Add(1, 2, 3)
	if got := db.Count(1, 2, 3); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if got := db.Count(1, 3, 2); got != 2 {
		t.Errorf("Count with swapped pair = %d, want 2", got)
	}
	if db.Count(2, 1, 3) != 0 {
		t.Error("unrelated key non-zero")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1", db.Len())
	}
	// Only distinct blocks make an entry.
	if db.Count(1, 2, 2) != 0 || db.Count(2, 2, 3) != 0 {
		t.Error("a repeated block has a non-zero count")
	}
	for _, k := range [][3]BlockID{{1, 2, 2}, {2, 2, 3}, {0, 1, 0}, {maxPairBlocks, 1, 2}, {0, -1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add%v did not panic", k)
				}
			}()
			db.Add(k[0], k[1], k[2])
		}()
	}
}

// Rows groups the database by p and rejects entries beyond its block
// count; the largest block IDs keep their own key.
func TestPairRows(t *testing.T) {
	const top = maxPairBlocks - 1
	db := NewPairDB()
	add := [][3]BlockID{{0, 1, 2}, {0, 2, 1}, {0, 3, 1}, {2, 0, 1}, {top, top - 1, top - 2}, {top - 2, top, 0}}
	for _, k := range add {
		db.Add(k[0], k[1], k[2])
	}
	if _, err := db.Rows(top); err == nil {
		t.Error("Rows accepted entries naming a block beyond its count")
	}
	rows, err := db.Rows(maxPairBlocks)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range []BlockID{0, 1, 2, 3, top - 2, top - 1, top} {
		row := rows[p]
		total += len(row)
		for _, e := range row {
			if e.R >= e.S || e.N != db.Count(p, e.R, e.S) {
				t.Errorf("row %d entry %+v, Count %d", p, e, db.Count(p, e.R, e.S))
			}
		}
	}
	if total != db.Len() || db.Len() != 5 {
		t.Errorf("rows hold %d entries, Len %d, want 5", total, db.Len())
	}
	if got := db.Count(0, 2, 1); got != 2 {
		t.Errorf("D(0,{1,2}) = %d, want 2", got)
	}
	if got := db.Count(top, top-2, top-1); got != 1 {
		t.Errorf("D(top,{top-2,top-1}) = %d, want 1", got)
	}
}

func TestBuildPairsCountsIntervening(t *testing.T) {
	// Trace p r s p: both r and s intervene between the two p references,
	// so D(p,{r,s}) = 1. One intervening block alone is not enough to evict
	// p from a 2-way set, and indeed contributes no pair.
	prog := program.MustNew([]program.Procedure{
		{Name: "p", Size: 32},
		{Name: "r", Size: 32},
		{Name: "s", Size: 32},
	})
	tr := trace.MustFromNames(prog, "p", "r", "s", "p", "r", "p")
	res, db, err := BuildPairs(prog, tr, Options{CacheBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	pc := BlockID(res.Chunker.FirstChunk(0))
	rc := BlockID(res.Chunker.FirstChunk(1))
	sc := BlockID(res.Chunker.FirstChunk(2))
	if got := db.Count(pc, rc, sc); got != 1 {
		t.Errorf("D(p,{r,s}) = %d, want 1", got)
	}
	// The r..r interval (r s p r) contains {s,p}: one more pair. The second
	// p..p interval contains only r: no pair — one block cannot evict p
	// from a 2-way set.
	if got := db.Count(rc, sc, pc); got != 1 {
		t.Errorf("D(r,{s,p}) = %d, want 1", got)
	}
	if db.Len() != 2 {
		t.Errorf("pair DB entries = %d, want 2", db.Len())
	}
	// The 1-way TRG sees three p/r interleavings: p(r s)p, r(s p)r, p(r)p.
	if w := res.Place.Weight(pc, rc); w != 3 {
		t.Errorf("W(p,r) = %d, want 3", w)
	}
}
