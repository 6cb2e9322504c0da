package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeSymmetric(t *testing.T) {
	g := New()
	g.AddEdgeWeight(1, 2, 5)
	if g.Weight(1, 2) != 5 || g.Weight(2, 1) != 5 {
		t.Errorf("weights = %d,%d", g.Weight(1, 2), g.Weight(2, 1))
	}
	g.AddEdgeWeight(2, 1, 1)
	if g.Weight(1, 2) != 6 {
		t.Errorf("after adding 1: %d", g.Weight(1, 2))
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := New()
	g.AddEdgeWeight(3, 3, 10)
	if g.Weight(3, 3) != 0 {
		t.Error("self-loop stored")
	}
	// AddEdgeWeight(3,3) should not even create the node.
	if g.HasNode(3) {
		t.Error("self-loop created node")
	}
}

func TestNodesAndEdges(t *testing.T) {
	g := New()
	g.AddEdgeWeight(5, 1, 2)
	g.AddEdgeWeight(1, 3, 7)
	g.AddNode(9)
	nodes := g.Nodes()
	wantNodes := []NodeID{1, 3, 5, 9}
	if len(nodes) != len(wantNodes) {
		t.Fatalf("Nodes = %v", nodes)
	}
	for i := range wantNodes {
		if nodes[i] != wantNodes[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, wantNodes)
		}
	}
	es := g.Edges()
	if len(es) != 2 || es[0] != (Edge{1, 3, 7}) || es[1] != (Edge{1, 5, 2}) {
		t.Errorf("Edges = %v", es)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 2 {
		t.Errorf("counts = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestHeaviestEdge(t *testing.T) {
	g := New()
	if _, ok := g.HeaviestEdge(); ok {
		t.Error("HeaviestEdge on empty graph returned ok")
	}
	g.AddEdgeWeight(1, 2, 5)
	g.AddEdgeWeight(2, 3, 9)
	g.AddEdgeWeight(4, 5, 9)
	e, ok := g.HeaviestEdge()
	if !ok || e != (Edge{2, 3, 9}) {
		t.Errorf("HeaviestEdge = %v (tie should break to smallest (U,V))", e)
	}
}

func TestMergeNodesCombinesParallelEdges(t *testing.T) {
	g := New()
	g.AddEdgeWeight(1, 2, 10) // edge to be contracted
	g.AddEdgeWeight(1, 3, 4)
	g.AddEdgeWeight(2, 3, 6)
	g.AddEdgeWeight(2, 4, 1)
	g.MergeNodes(1, 2)
	if g.HasNode(2) {
		t.Error("merged node still present")
	}
	if w := g.Weight(1, 3); w != 10 {
		t.Errorf("combined weight = %d, want 4+6=10", w)
	}
	if w := g.Weight(1, 4); w != 1 {
		t.Errorf("inherited weight = %d, want 1", w)
	}
	if g.Weight(1, 1) != 0 {
		t.Error("self edge created by merge")
	}
	if g.Weight(3, 2) != 0 || g.Weight(4, 2) != 0 {
		t.Error("stale edges to merged node remain")
	}
}

func TestRemoveNode(t *testing.T) {
	g := New()
	g.AddEdgeWeight(1, 2, 3)
	g.AddEdgeWeight(2, 3, 4)
	g.RemoveNode(2)
	if g.HasNode(2) || g.Weight(1, 2) != 0 || g.Weight(3, 2) != 0 {
		t.Error("RemoveNode left residue")
	}
	if !g.HasNode(1) || !g.HasNode(3) {
		t.Error("RemoveNode removed other nodes")
	}
}

func TestSetWeightZeroRemovesEdge(t *testing.T) {
	g := New()
	g.AddEdgeWeight(1, 2, 3)
	g.SetWeight(1, 2, 0)
	if g.NumEdges() != 0 {
		t.Error("edge remains after SetWeight 0")
	}
	g.SetWeight(1, 2, 7)
	if g.Weight(2, 1) != 7 {
		t.Error("SetWeight failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New()
	g.AddEdgeWeight(1, 2, 3)
	c := g.Clone()
	c.AddEdgeWeight(1, 2, 10)
	if g.Weight(1, 2) != 3 {
		t.Error("Clone shares storage")
	}
}

func TestNeighborsDeterministic(t *testing.T) {
	g := New()
	g.AddEdgeWeight(1, 5, 1)
	g.AddEdgeWeight(1, 3, 2)
	g.AddEdgeWeight(1, 9, 3)
	var order []NodeID
	g.Neighbors(1, func(v NodeID, w int64) { order = append(order, v) })
	want := []NodeID{3, 5, 9}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Neighbors order = %v, want %v", order, want)
		}
	}
}

// Property: merging conserves total weight minus the contracted edge.
func TestMergeConservesWeightProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := rng.Intn(20) + 2
		for i := 0; i < 40; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				g.AddEdgeWeight(u, v, int64(rng.Intn(100)+1))
			}
		}
		e, ok := g.HeaviestEdge()
		if !ok {
			return true
		}
		before := g.TotalWeight()
		g.MergeNodes(e.U, e.V)
		return g.TotalWeight() == before-e.W
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: repeatedly merging the heaviest edge terminates with zero edges
// and never loses nodes other than the merged ones.
func TestGreedyMergeTerminatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := rng.Intn(15) + 2
		for i := 0; i < 30; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				g.AddEdgeWeight(u, v, int64(rng.Intn(50)+1))
			}
		}
		steps := 0
		for {
			e, ok := g.HeaviestEdge()
			if !ok {
				break
			}
			g.MergeNodes(e.U, e.V)
			steps++
			if steps > n {
				return false // must terminate within n-1 merges
			}
		}
		return g.NumEdges() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
