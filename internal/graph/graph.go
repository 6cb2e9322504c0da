// Package graph provides the weighted undirected graph used by both the
// weighted call graph (WCG) of Pettis & Hansen and the temporal relationship
// graphs (TRGs) of the paper, together with the node-merging operation at
// the heart of every greedy placement algorithm in this repository.
package graph

import (
	"cmp"
	"slices"
)

// NodeID identifies a graph node. WCGs use program.ProcID values; TRG_place
// uses program.ChunkID values. Both are dense int32 index spaces.
type NodeID = int32

// Graph is a weighted undirected graph without self-loops. Edge weights are
// conflict-metric counts and therefore non-negative.
type Graph struct {
	adj map[NodeID]map[NodeID]int64
	// sel is the indexed heaviest-edge selector (see heap.go), nil until
	// the first HeaviestEdge call. Once active, every mutation keeps it
	// current so selection stays O(log E) amortized across merge loops.
	sel *edgeSelector
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[NodeID]map[NodeID]int64)}
}

// AddNode ensures a node exists even if it has no edges.
func (g *Graph) AddNode(n NodeID) {
	if _, ok := g.adj[n]; !ok {
		g.adj[n] = make(map[NodeID]int64)
	}
}

// HasNode reports whether n is present.
func (g *Graph) HasNode(n NodeID) bool {
	_, ok := g.adj[n]
	return ok
}

// AddEdgeWeight adds w to the weight of edge (u,v), creating nodes and the
// edge as needed. Self-loops are ignored: a code block cannot conflict with
// itself in the cache.
func (g *Graph) AddEdgeWeight(u, v NodeID, w int64) {
	if u == v {
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	g.adj[u][v] += w
	g.adj[v][u] += w
	g.notifyEdge(u, v, g.adj[u][v])
}

// Increment adds 1 to the weight of edge (u,v).
func (g *Graph) Increment(u, v NodeID) { g.AddEdgeWeight(u, v, 1) }

// Weight returns the weight of edge (u,v), or 0 if absent.
func (g *Graph) Weight(u, v NodeID) int64 {
	if m, ok := g.adj[u]; ok {
		return m[v]
	}
	return 0
}

// SetWeight overwrites the weight of edge (u,v). A weight of 0 removes the
// edge.
func (g *Graph) SetWeight(u, v NodeID, w int64) {
	if u == v {
		return
	}
	if w == 0 {
		if m, ok := g.adj[u]; ok {
			delete(m, v)
		}
		if m, ok := g.adj[v]; ok {
			delete(m, u)
		}
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	g.adj[u][v] = w
	g.adj[v][u] = w
	g.notifyEdge(u, v, w)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of (undirected) edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, m := range g.adj {
		total += len(m)
	}
	return total / 2
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(g.adj))
	for n := range g.adj {
		ids = append(ids, n)
	}
	slices.Sort(ids)
	return ids
}

// Neighbors invokes fn for each neighbor of n with the edge weight, in
// ascending neighbor order (deterministic).
func (g *Graph) Neighbors(n NodeID, fn func(v NodeID, w int64)) {
	m, ok := g.adj[n]
	if !ok {
		return
	}
	vs := make([]NodeID, 0, len(m))
	for v := range m {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	for _, v := range vs {
		fn(v, m[v])
	}
}

// ForEachNeighbor invokes fn for each neighbor of n with the edge weight,
// in unspecified order and without allocating. Use it only for commutative
// folds (sums, argmax with a total-order tie-break); callers whose output
// depends on visit order must use Neighbors instead.
func (g *Graph) ForEachNeighbor(n NodeID, fn func(v NodeID, w int64)) {
	for v, w := range g.adj[n] {
		fn(v, w)
	}
}

// Degree returns the number of edges incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V NodeID
	W    int64
}

// Edges returns all edges sorted by (U,V); useful for deterministic
// iteration and serialization. The result is sized exactly and built with
// a single allocation.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for u, m := range g.adj {
		for v, w := range m {
			if u < v {
				es = append(es, Edge{U: u, V: v, W: w})
			}
		}
	}
	slices.SortFunc(es, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	return es
}

// HeaviestEdge returns the edge with the largest weight. Ties are broken by
// smallest (U,V) so that runs are deterministic; the paper notes that such
// ties are otherwise "decided arbitrarily" yet affect all future steps
// (Section 5.1), so pinning them down matters for reproducibility.
// ok is false when the graph has no edges.
//
// The first call builds an indexed max-heap over the edges in O(E);
// afterwards selection is O(log E) amortized because mutations push fresh
// entries and stale ones are discarded lazily at the top. The returned edge
// is byte-identical to the O(E) scan oracle the tests keep
// (heaviestEdgeScan in heap_test.go) under the same (W desc, U asc, V asc)
// total order.
func (g *Graph) HeaviestEdge() (e Edge, ok bool) {
	if g.sel == nil {
		g.buildSelector()
	}
	s := g.sel
	for len(s.entries) > 0 {
		top := s.entries[0]
		s.pops++
		if m, live := g.adj[top.U]; live {
			if w, exists := m[top.V]; exists && w == top.W {
				// A valid entry is a peek, not a pop: the edge stays
				// selectable until a mutation invalidates it.
				return top, true
			}
		}
		s.stale++
		s.popTop()
	}
	return Edge{}, false
}

// MergeNodes merges node v into node u: every edge (v,r) becomes (u,r) with
// weights of parallel edges summed, the edge (u,v) disappears, and v is
// removed from the graph. This is the working-graph operation of PH and
// GBSC (Section 2).
func (g *Graph) MergeNodes(u, v NodeID) {
	if u == v {
		return
	}
	mv, ok := g.adj[v]
	if !ok {
		return
	}
	g.AddNode(u)
	for r, w := range mv {
		if r == u {
			continue
		}
		g.adj[u][r] += w
		g.adj[r][u] += w
		delete(g.adj[r], v)
		g.notifyEdge(u, r, g.adj[u][r])
	}
	delete(g.adj[u], v)
	delete(g.adj, v)
}

// RemoveNode deletes n and all incident edges.
func (g *Graph) RemoveNode(n NodeID) {
	m, ok := g.adj[n]
	if !ok {
		return
	}
	for v := range m {
		delete(g.adj[v], n)
	}
	delete(g.adj, n)
}

// AddGraph merges src into g: nodes are unioned and the weights of edges
// present in both are summed. Addition is commutative and associative, so
// folding any partition of a graph back together yields the same result in
// any merge order — the property the sharded TRG builder relies on (the
// same snapshot-merge discipline as telemetry.Registry.Snapshot). src is
// not modified.
func (g *Graph) AddGraph(src *Graph) {
	for u, m := range src.adj {
		g.AddNode(u)
		for v, w := range m {
			if u < v {
				g.AddEdgeWeight(u, v, w)
			}
		}
	}
}

// Clone returns a deep copy. The copy's adjacency maps are preallocated to
// the source's sizes; the heaviest-edge selector is not copied (the clone
// rebuilds it lazily on its first HeaviestEdge call).
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make(map[NodeID]map[NodeID]int64, len(g.adj))}
	for u, m := range g.adj {
		cm := make(map[NodeID]int64, len(m))
		for v, w := range m {
			cm[v] = w
		}
		c.adj[u] = cm
	}
	return c
}

// TotalWeight returns the sum of all edge weights (each undirected edge
// counted once).
func (g *Graph) TotalWeight() int64 {
	var total int64
	for u, m := range g.adj {
		for v, w := range m {
			if u < v {
				total += w
			}
		}
	}
	return total
}

// Filter returns a copy containing only nodes for which keep returns true
// (and the edges among them).
func (g *Graph) Filter(keep func(NodeID) bool) *Graph {
	c := New()
	for u, m := range g.adj {
		if !keep(u) {
			continue
		}
		c.AddNode(u)
		for v, w := range m {
			if u < v && keep(v) {
				c.AddEdgeWeight(u, v, w)
			}
		}
	}
	return c
}
