package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trg"
)

// Place runs the GBSC procedure-placement algorithm for a direct-mapped
// cache:
//
//  1. Copy TRG_select into a working graph whose nodes carry sets of
//     (procedure, cache-line offset) tuples.
//  2. Repeatedly take the heaviest edge, find the best relative alignment
//     of the two node layouts via the TRG_place conflict metric (Figure 4),
//     and merge, until no edges remain (Section 4.1–4.2).
//  3. Produce the final linear layout by the smallest-positive-gap rule,
//     filling gaps with unpopular procedures (Section 4.3).
//
// res must come from trg.Build (or trg.BuildPairs) over the same program
// with the same popular set.
func Place(prog *program.Program, res *trg.Result, pop *popular.Set, cfg cache.Config) (*program.Layout, error) {
	return PlaceCounted(prog, res, pop, cfg, nil)
}

// Metrics accumulates counters from the GBSC merge loop. It is plain data
// rather than a telemetry handle so core stays decoupled from the
// telemetry package; callers copy the totals into whatever sink they use.
type Metrics struct {
	// Merges counts heaviest-edge node merges (the loop iterations of
	// Section 4.1's greedy phase).
	Merges int64
	// AlignOffsets counts candidate cache-relative offsets evaluated by
	// the Figure 4 alignment search across all merges. By definition this
	// is period per merge — every offset is a candidate and the search
	// considers the full cost vector — even though the edge-driven scorer
	// touches only the cost entries reachable from cross-edges; it is a
	// measure of search-space size, not of scoring work (CrossEdges is).
	AlignOffsets int64
	// HeapPops counts heap-top examinations by the working graph's indexed
	// heaviest-edge selector; StalePops counts the subset discarded as out
	// of date (lazy invalidation). HeapPops-StalePops equals the number of
	// successful edge selections, which is exactly Merges: the terminal
	// empty-graph check only discards stale entries.
	HeapPops  int64
	StalePops int64
	// CrossEdges counts TRG_place cross-edges scanned by the edge-driven
	// direct-mapped alignment scorer across all merges (zero for the
	// set-associative engine, which charges set pairs instead).
	CrossEdges int64
}

// PlaceCounted is Place, additionally tallying merge-loop effort into m.
// m may be nil.
func PlaceCounted(prog *program.Program, res *trg.Result, pop *popular.Set, cfg cache.Config, m *Metrics) (*program.Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	period := cfg.NumLines()
	eng := newDirectEngine(prog, res.Place, res.Chunker, cfg.LineBytes, period)
	return placeCommon(prog, res, pop, cfg, period, eng, m)
}

// PlaceAssoc runs the Section 6 set-associative variant: alignment costs
// come from the pair database D rather than pairwise TRG_place weights, and
// alignments are resolved at set granularity. For Assoc == 1 it reduces to
// behaviour equivalent in spirit to Place (a single intervening block
// suffices to evict), but Place should be preferred for direct-mapped
// targets.
func PlaceAssoc(prog *program.Program, res *trg.Result, db *trg.PairDB, pop *popular.Set, cfg cache.Config) (*program.Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Assoc < 2 {
		return nil, fmt.Errorf("core: PlaceAssoc requires associativity >= 2, got %d", cfg.Assoc)
	}
	if db == nil {
		return nil, fmt.Errorf("core: PlaceAssoc requires a pair database; use trg.BuildPairs")
	}
	period := cfg.NumSets()
	eng := newAssocEngine(prog, db, res.Chunker, cfg.LineBytes, period)
	return placeCommon(prog, res, pop, cfg, period, eng, nil)
}

// Assign runs the GBSC merging phase only, returning the cache-relative
// placement tuples for the popular procedures without producing a linear
// layout. Figure 6's methodology perturbs these offsets directly.
func Assign(prog *program.Program, res *trg.Result, pop *popular.Set, cfg cache.Config) ([]place.Placed, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	period := cfg.NumLines()
	eng := newDirectEngine(prog, res.Place, res.Chunker, cfg.LineBytes, period)
	return assign(prog, res, pop, period, eng, nil)
}

// Linearize produces the final layout from (possibly modified) placement
// tuples, using the Section 4.3 pipeline with the given popular set.
func Linearize(prog *program.Program, items []place.Placed, pop *popular.Set, cfg cache.Config) (*program.Layout, error) {
	if pop == nil {
		pop = popular.All(prog)
	}
	return place.Linearize(prog, items, pop.Unpopular(prog), cfg, cfg.NumLines())
}

// PlacePageAware is Place with the page-locality linearization the paper's
// Section 4.3 suggests: every procedure keeps exactly the cache-relative
// alignment the merge phase chose (the instruction-cache behaviour is
// preserved), but smallest-gap ties in the final ordering are broken by
// temporal affinity so procedures that run together share pages.
func PlacePageAware(prog *program.Program, res *trg.Result, pop *popular.Set, cfg cache.Config) (*program.Layout, error) {
	items, err := Assign(prog, res, pop, cfg)
	if err != nil {
		return nil, err
	}
	if pop == nil {
		pop = popular.All(prog)
	}
	return place.LinearizePageAware(prog, items, pop.Unpopular(prog), cfg, cfg.NumLines(), res.Select, 4)
}

func placeCommon(prog *program.Program, res *trg.Result, pop *popular.Set, cfg cache.Config, period int, eng alignEngine, m *Metrics) (*program.Layout, error) {
	if pop == nil {
		pop = popular.All(prog)
	}
	items, err := assign(prog, res, pop, period, eng, m)
	if err != nil {
		return nil, err
	}
	return place.Linearize(prog, items, pop.Unpopular(prog), cfg, period)
}

func assign(prog *program.Program, res *trg.Result, pop *popular.Set, period int, eng alignEngine, m *Metrics) ([]place.Placed, error) {
	if pop == nil {
		pop = popular.All(prog)
	}

	// Working graph: a copy of TRG_select (Section 2 / Section 4.1).
	working := res.Select.Clone()
	nodes := make(map[graph.NodeID]*node, len(pop.IDs))
	for _, p := range pop.IDs {
		working.AddNode(graph.NodeID(p)) // popular but edgeless procedures still get placed
		nodes[graph.NodeID(p)] = newNode(p)
		eng.addNode(graph.NodeID(p), p)
	}
	for _, id := range working.Nodes() {
		if _, ok := nodes[id]; !ok {
			// A TRG_select node that the popularity mask does not cover
			// indicates mismatched inputs.
			return nil, fmt.Errorf("core: TRG_select contains procedure %d outside the popular set", id)
		}
	}

	// Greedy merging until no edges remain.
	for {
		e, ok := working.HeaviestEdge()
		if !ok {
			break
		}
		n1, n2 := nodes[e.U], nodes[e.V]
		if m != nil {
			m.Merges++
			m.AlignOffsets += int64(period)
		}
		off := eng.bestOffset(e.U, e.V)
		n2.shift(off, period)
		n1.absorb(n2)
		eng.merged(e.U, e.V, off)
		working.MergeNodes(e.U, e.V)
		delete(nodes, e.V)
	}
	if m != nil {
		pops, stale := working.SelectorStats()
		m.HeapPops += pops
		m.StalePops += stale
		m.CrossEdges += eng.crossEdgesScanned()
	}

	// Gather the surviving nodes' tuples. TRG_select "is not necessarily
	// reduced to a single node" (Section 4.3); every node's internal
	// alignment is preserved in the final list. Every popular procedure
	// appears exactly once across the nodes, so the capacity is exact.
	items := make([]place.Placed, 0, len(pop.IDs))
	for _, id := range working.Nodes() {
		items = append(items, nodes[id].procs...)
	}
	return items, nil
}
