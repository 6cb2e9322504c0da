package graph

import (
	"math/rand"
	"testing"
)

// heaviestEdgeScan is the original O(E) linear scan, over the ordered edge
// list, retained as the reference oracle for the differential tests of the
// heap selector. It must implement the identical (W desc, U asc, V asc)
// total order.
func (g *Graph) heaviestEdgeScan() (e Edge, ok bool) {
	for _, c := range g.Edges() {
		if !ok || edgeBefore(c, e) {
			e, ok = c, true
		}
	}
	return e, ok
}

// checkAgainstScan asserts the heap-backed HeaviestEdge agrees exactly with
// the retained O(E) scan oracle.
func checkAgainstScan(t *testing.T, g *Graph, seed int64, step int) {
	t.Helper()
	want, wantOK := g.heaviestEdgeScan()
	got, gotOK := g.HeaviestEdge()
	if gotOK != wantOK || got != want {
		t.Fatalf("seed %d step %d: HeaviestEdge = %v,%v; scan oracle = %v,%v",
			seed, step, got, gotOK, want, wantOK)
	}
}

// TestHeaviestEdgeDifferential interleaves every mutating operation with
// selections and compares the heap selector against the linear-scan oracle
// after each step, over 120 randomized graphs.
func TestHeaviestEdgeDifferential(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := rng.Intn(25) + 2
		randNode := func() NodeID { return NodeID(rng.Intn(n)) }
		for step := 0; step < 120; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // weight increments, the common operation
				g.AddEdgeWeight(randNode(), randNode(), int64(rng.Intn(50)+1))
			case 4: // overwrite, possibly deleting
				g.SetWeight(randNode(), randNode(), int64(rng.Intn(4)))
			case 5: // remove a node outright
				g.RemoveNode(randNode())
			case 6, 7: // merge the current heaviest edge, as the loops do
				if e, ok := g.HeaviestEdge(); ok {
					g.MergeNodes(e.U, e.V)
				}
			case 8: // merge an arbitrary pair
				g.MergeNodes(randNode(), randNode())
			case 9: // zero-weight edge creation (AddEdgeWeight keeps it)
				g.AddEdgeWeight(randNode(), randNode(), 0)
			}
			checkAgainstScan(t, g, seed, step)
		}
	}
}

// TestHeaviestEdgeDrainMatchesScan drains random graphs by repeated
// heaviest-edge merging, comparing every selection against the oracle: the
// exact access pattern of the PH and GBSC merge loops.
func TestHeaviestEdgeDrainMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := rng.Intn(30) + 2
		for i := 0; i < 3*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				g.AddEdgeWeight(u, v, int64(rng.Intn(100)+1))
			}
		}
		for step := 0; ; step++ {
			want, wantOK := g.heaviestEdgeScan()
			got, gotOK := g.HeaviestEdge()
			if gotOK != wantOK || got != want {
				t.Fatalf("seed %d step %d: HeaviestEdge = %v,%v; scan = %v,%v",
					seed, step, got, gotOK, want, wantOK)
			}
			if !gotOK {
				break
			}
			g.MergeNodes(got.U, got.V)
		}
		if g.NumEdges() != 0 {
			t.Fatalf("seed %d: drain left %d edges", seed, g.NumEdges())
		}
	}
}

// A deleted edge must not resurface through a stale zero-weight entry.
func TestHeaviestEdgeZeroWeightVsDeleted(t *testing.T) {
	g := New()
	g.AddEdgeWeight(1, 2, 0) // real zero-weight edge
	e, ok := g.HeaviestEdge()
	if !ok || e != (Edge{1, 2, 0}) {
		t.Fatalf("zero-weight edge not selectable: %v %v", e, ok)
	}
	g.SetWeight(1, 2, 0) // deletes the edge
	if _, ok := g.HeaviestEdge(); ok {
		t.Error("deleted edge still selectable via stale heap entry")
	}
}

func TestSelectorStats(t *testing.T) {
	g := New()
	if p, s := g.SelectorStats(); p != 0 || s != 0 {
		t.Fatalf("stats before activation = %d,%d", p, s)
	}
	g.AddEdgeWeight(1, 2, 5)
	g.AddEdgeWeight(2, 3, 9)
	if _, ok := g.HeaviestEdge(); !ok {
		t.Fatal("no edge")
	}
	pops, stale := g.SelectorStats()
	if pops != 1 || stale != 0 {
		t.Errorf("after clean peek: pops=%d stale=%d, want 1,0", pops, stale)
	}
	g.MergeNodes(2, 3) // invalidates (2,3) and re-weights (1,2)
	if _, ok := g.HeaviestEdge(); !ok {
		t.Fatal("no edge after merge")
	}
	pops2, stale2 := g.SelectorStats()
	if pops2 <= pops || stale2 == 0 {
		t.Errorf("after merge: pops=%d stale=%d, want growth and stale discards", pops2, stale2)
	}
}

// The selector must survive cloning: the clone starts fresh and neither
// graph's selections disturb the other.
func TestCloneDoesNotShareSelector(t *testing.T) {
	g := New()
	g.AddEdgeWeight(1, 2, 5)
	g.AddEdgeWeight(2, 3, 9)
	if e, _ := g.HeaviestEdge(); e != (Edge{2, 3, 9}) {
		t.Fatal("unexpected heaviest")
	}
	c := g.Clone()
	c.MergeNodes(2, 3)
	if e, _ := c.HeaviestEdge(); e != (Edge{1, 2, 5}) {
		t.Errorf("clone heaviest = %v", e)
	}
	if e, _ := g.HeaviestEdge(); e != (Edge{2, 3, 9}) {
		t.Errorf("original heaviest changed to %v after clone mutation", e)
	}
	if p, _ := c.SelectorStats(); p == 0 {
		t.Error("clone selector stats not independent")
	}
}

func buildAllocGraph() *Graph {
	g := New()
	for i := NodeID(0); i < 32; i++ {
		for j := i + 1; j < 32; j += 3 {
			g.AddEdgeWeight(i, j, int64(i+j+1))
		}
	}
	return g
}

// cloneSink keeps each clone on the heap, as the placement loops keep theirs.
var cloneSink *Graph

// Allocation-count assertions for the hot helpers: Neighbors walks a
// slice and allocates nothing, Edges makes exactly the result slice, and
// Clone makes the graph shell, its two per-node slices and one backing
// array for every neighbour list, whatever the graph's size.
func TestHotHelperAllocations(t *testing.T) {
	g := buildAllocGraph()
	if n := testing.AllocsPerRun(20, func() { _ = g.Edges() }); n != 1 {
		t.Errorf("Edges allocs = %v, want exactly 1 (the sized result slice)", n)
	}
	var sink int64
	if n := testing.AllocsPerRun(20, func() {
		g.Neighbors(3, func(_ NodeID, w int64) { sink += w })
	}); n != 0 {
		t.Errorf("Neighbors allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { cloneSink = g.Clone() }); n != 4 {
		t.Errorf("Clone allocs = %v, want 4", n)
	}
}
