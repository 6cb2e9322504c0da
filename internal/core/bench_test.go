package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/tracegen"
	"repro/internal/trg"
)

// BenchmarkBestAlignment times one direct-mapped Figure 4 alignment search
// of the edge-driven scorer at the midpoint of an m88ksim merge run (both
// nodes carry many procedures).
func BenchmarkBestAlignment(b *testing.B) {
	pair := tracegen.Lookup(tracegen.Suite(0.3), "m88ksim")
	prog := pair.Bench.Prog
	tr := pair.Bench.Trace(pair.Train)
	pop := popular.Select(prog, tr, popular.Options{})
	cfg := cache.PaperConfig
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, Popular: pop})
	if err != nil {
		b.Fatal(err)
	}
	period := cfg.NumLines()
	benchSearch(b, prog, res, pop, period, newDirectEngine(prog, res.Place, res.Chunker, cfg.LineBytes, period))
}

// BenchmarkBestAlignmentAssoc times one Section 6 set-associative
// alignment search over the pair database with the buffered scorer.
func BenchmarkBestAlignmentAssoc(b *testing.B) {
	pair := tracegen.Lookup(tracegen.Suite(0.1), "perl")
	prog := pair.Bench.Prog
	tr := pair.Bench.Trace(pair.Train)
	pop := popular.Select(prog, tr, popular.Options{})
	cfg := cache.Config{SizeBytes: cache.PaperConfig.SizeBytes, LineBytes: cache.PaperConfig.LineBytes, Assoc: 2}
	res, db, err := trg.BuildPairs(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, Popular: pop})
	if err != nil {
		b.Fatal(err)
	}
	period := cfg.NumSets()
	benchSearch(b, prog, res, pop, period, newAssocEngine(prog, db, res.Chunker, cfg.LineBytes, period))
}

// benchSearch replays merges until half the popular nodes remain (so both
// nodes of the next merge carry realistic multi-procedure occupancy),
// freezes the engine state, and times that single — largest — alignment
// search without merging.
func benchSearch(b *testing.B, prog *program.Program, res *trg.Result, pop *popular.Set, period int, eng alignEngine) {
	b.Helper()
	working := res.Select.Clone()
	nodes := make(map[graph.NodeID]*node, len(pop.IDs))
	for _, p := range pop.IDs {
		working.AddNode(graph.NodeID(p))
		nodes[graph.NodeID(p)] = newNode(p)
		eng.addNode(graph.NodeID(p), p)
	}
	for working.NumNodes() > len(pop.IDs)/2 {
		e, ok := working.HeaviestEdge()
		if !ok {
			break
		}
		n1, n2 := nodes[e.U], nodes[e.V]
		off := eng.bestOffset(e.U, e.V)
		n2.shift(off, period)
		n1.absorb(n2)
		eng.merged(e.U, e.V, off)
		working.MergeNodes(e.U, e.V)
		delete(nodes, e.V)
	}
	e, ok := working.HeaviestEdge()
	if !ok {
		b.Fatal("benchmark merge state ran out of edges")
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += eng.bestOffset(e.U, e.V)
	}
	_ = sink
}
