// Package graph provides the weighted undirected graph used by both the
// weighted call graph (WCG) of Pettis & Hansen and the temporal relationship
// graphs (TRGs) of the paper, together with the node-merging operation at
// the heart of every greedy placement algorithm in this repository, and the
// edge counter the WCG and TRG builders count a profile in (counter.go).
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a graph node. WCGs use program.ProcID values; TRG_place
// uses program.ChunkID values. Both are dense int32 index spaces.
type NodeID = int32

// Graph is a weighted undirected graph without self-loops. Edge weights are
// conflict-metric counts and therefore non-negative.
//
// Node IDs index dense slices: adj[n] lists n's neighbours in ascending ID
// order, each undirected edge appearing once at each end, so every ordered
// walk is a scan and every lookup a binary search. Memory is linear in the
// largest node ID, which suits the dense ProcID and ChunkID spaces.
type Graph struct {
	adj     [][]arc
	present []bool
	nodes   int
	edges   int
	// sel is the indexed heaviest-edge selector (see heap.go), nil until
	// the first HeaviestEdge call. Once active, every mutation keeps it
	// current so selection stays O(log E) amortized across merge loops.
	sel *edgeSelector
}

// arc is one end's view of an edge: the neighbour and the edge weight.
type arc struct {
	v NodeID
	w int64
}

// New creates an empty graph.
func New() *Graph { return &Graph{} }

// FromEdges builds a graph from a node list and distinct edges with U < V
// in O(N + E), where N is one more than the largest node ID. Edge ends are
// nodes too, and nodes may come in any order and repeat. Edges fed in
// ascending (U,V) order, as Edges returns them, fill every neighbour list
// already sorted; any other order costs one more pass over the lists. It
// panics on a negative ID, an edge with U >= V or a repeated edge.
func FromEdges(nodes []NodeID, edges []Edge) *Graph {
	n, sorted := 0, true
	for _, id := range nodes {
		n = max(n, int(id)+1)
	}
	for i, e := range edges {
		if e.U < 0 || e.U >= e.V {
			panic(fmt.Sprintf("graph: edge (%d,%d) does not have 0 <= U < V", e.U, e.V))
		}
		n = max(n, int(e.V)+1)
		if i > 0 && !edgeLess(edges[i-1], e) {
			sorted = false
		}
	}
	g := &Graph{adj: make([][]arc, n), present: make([]bool, n), edges: len(edges)}
	for _, id := range nodes {
		g.AddNode(id)
	}
	lists := g.adj
	if !sorted {
		lists = make([][]arc, n)
	}
	carve(lists, edges)
	for _, e := range edges {
		g.AddNode(e.U)
		g.AddNode(e.V)
		lists[e.U] = append(lists[e.U], arc{e.V, e.W})
		lists[e.V] = append(lists[e.V], arc{e.U, e.W})
	}
	if !sorted {
		// Visiting the unordered lists by ascending node appends each
		// node's neighbours to its final list in ascending order.
		carve(g.adj, edges)
		for u, list := range lists {
			for _, a := range list {
				out := g.adj[a.v]
				if len(out) > 0 && out[len(out)-1].v == NodeID(u) {
					panic(fmt.Sprintf("graph: edge (%d,%d) repeats", min(a.v, NodeID(u)), max(a.v, NodeID(u))))
				}
				g.adj[a.v] = append(out, arc{NodeID(u), a.w})
			}
		}
	}
	return g
}

// carve points every list at its own empty stretch of one backing array,
// sized to the node's degree in edges, so appends fill the lists in place.
// Each stretch's capacity ends where the next begins.
func carve(lists [][]arc, edges []Edge) {
	deg := make([]int, len(lists)+1)
	for _, e := range edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	backing := make([]arc, 2*len(edges))
	for u := range lists {
		deg[u+1] += deg[u]
		lists[u] = slices.Clip(backing[deg[u]:deg[u+1]])[:0]
	}
}

// edgeLess orders edges by (U,V).
func edgeLess(a, b Edge) bool { return a.U < b.U || a.U == b.U && a.V < b.V }

// search returns the index of v in the ascending list, or the index it
// would be inserted at, and whether v is there.
func search(list []arc, v NodeID) (int, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if list[m].v < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(list) && list[lo].v == v
}

// arcs returns n's neighbour list, empty for an absent or out-of-range n.
func (g *Graph) arcs(n NodeID) []arc {
	if n < 0 || int(n) >= len(g.adj) {
		return nil
	}
	return g.adj[n]
}

// AddNode ensures a node exists even if it has no edges. It panics on a
// negative ID.
func (g *Graph) AddNode(n NodeID) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node ID %d", n))
	}
	if size := int(n) + 1; size > len(g.adj) {
		g.adj = slices.Grow(g.adj, size-len(g.adj))[:size]
		g.present = slices.Grow(g.present, size-len(g.present))[:size]
	}
	if !g.present[n] {
		g.present[n] = true
		g.nodes++
	}
}

// HasNode reports whether n is present.
func (g *Graph) HasNode(n NodeID) bool {
	return n >= 0 && int(n) < len(g.present) && g.present[n]
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
	nw, added := g.addArc(u, v, w, false)
	g.addArc(v, u, w, false)
	if added {
		g.edges++
	}
	g.notifyEdge(u, v, nw)
}

// addArc adds w to (or, with set, overwrites with w) the weight of u's arc
// to v, inserting the arc if absent. It returns the new weight and whether
// the arc was inserted.
func (g *Graph) addArc(u, v NodeID, w int64, set bool) (int64, bool) {
	list := g.adj[u]
	i, ok := search(list, v)
	if !ok {
		g.adj[u] = slices.Insert(list, i, arc{v, w})
		return w, true
	}
	if set {
		list[i].w = w
	} else {
		list[i].w += w
	}
	return list[i].w, false
}

// removeArc deletes u's arc to v and reports whether there was one.
func (g *Graph) removeArc(u, v NodeID) bool {
	list := g.arcs(u)
	i, ok := search(list, v)
	if ok {
		g.adj[u] = append(list[:i], list[i+1:]...)
	}
	return ok
}

// Weight returns the weight of edge (u,v), or 0 if absent.
func (g *Graph) Weight(u, v NodeID) int64 {
	list := g.arcs(u)
	if i, ok := search(list, v); ok {
		return list[i].w
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
		if g.removeArc(u, v) {
			g.removeArc(v, u)
			g.edges--
		}
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	if _, added := g.addArc(u, v, w, true); added {
		g.edges++
	}
	g.addArc(v, u, w, true)
	g.notifyEdge(u, v, w)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes }

// NumEdges returns the number of (undirected) edges.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, g.nodes)
	for n, ok := range g.present {
		if ok {
			ids = append(ids, NodeID(n))
		}
	}
	return ids
}

// Neighbors invokes fn for each neighbor of n with the edge weight, in
// ascending neighbor order, without allocating. fn must not change the
// graph.
func (g *Graph) Neighbors(n NodeID, fn func(v NodeID, w int64)) {
	for _, a := range g.arcs(n) {
		fn(a.v, a.w)
	}
}

// Degree returns the number of edges incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.arcs(n)) }

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V NodeID
	W    int64
}

// Edges returns all edges sorted by (U,V); useful for deterministic
// iteration and serialization. The result is sized exactly and built with
// a single allocation.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	for u, list := range g.adj {
		// No self-loops: the arcs from the first one past u are u's edges
		// with U = u.
		i, _ := search(list, NodeID(u))
		for _, a := range list[i:] {
			es = append(es, Edge{U: NodeID(u), V: a.v, W: a.w})
		}
	}
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
// entries and stale ones are discarded lazily at the top, after a binary
// search of the entry's U list. The returned edge is byte-identical to the
// O(E) scan oracle the tests keep (heaviestEdgeScan in heap_test.go) under
// the same (W desc, U asc, V asc) total order.
func (g *Graph) HeaviestEdge() (e Edge, ok bool) {
	if g.sel == nil {
		g.buildSelector()
	}
	s := g.sel
	for len(s.entries) > 0 {
		top := s.entries[0]
		s.pops++
		list := g.adj[top.U]
		if i, live := search(list, top.V); live && list[i].w == top.W {
			// A valid entry is a peek, not a pop: the edge stays
			// selectable until a mutation invalidates it.
			return top, true
		}
		s.stale++
		s.popTop()
	}
	return Edge{}, false
}

// MergeNodes merges node v into node u: every edge (v,r) becomes (u,r) with
// weights of parallel edges summed, the edge (u,v) disappears, and v is
// removed from the graph. This is the working-graph operation of PH and
// GBSC (Section 2). It folds the two sorted neighbour lists into u's new
// list and moves each of v's neighbours' arcs from v to u.
func (g *Graph) MergeNodes(u, v NodeID) {
	if u == v || !g.HasNode(v) {
		return
	}
	g.AddNode(u)
	a, b := g.adj[u], g.adj[v]
	merged := make([]arc, 0, len(a)+len(b))
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case j == len(b) || i < len(a) && a[i].v < b[j].v:
			if a[i].v == v {
				g.edges--
			} else {
				merged = append(merged, a[i])
			}
			i++
		case i == len(a) || b[j].v < a[i].v:
			if r := b[j]; r.v != u {
				merged = append(merged, r)
				g.moveArc(r.v, v, u, r.w)
				g.notifyEdge(u, r.v, r.w)
			}
			j++
		default: // r is a neighbour of both: the parallel edges combine
			r := arc{a[i].v, a[i].w + b[j].w}
			merged = append(merged, r)
			g.moveArc(r.v, v, u, b[j].w)
			g.notifyEdge(u, r.v, r.w)
			g.edges--
			i++
			j++
		}
	}
	g.adj[u], g.adj[v] = merged, nil
	g.present[v] = false
	g.nodes--
}

// moveArc replaces r's arc to v, of weight w, by an arc to u, adding w to
// the weight of r's arc to u if there is one, and keeps r's list sorted.
func (g *Graph) moveArc(r, v, u NodeID, w int64) {
	list := g.adj[r]
	pv, _ := search(list, v)
	pu, hasU := search(list, u)
	switch {
	case hasU:
		list[pu].w += w
		g.adj[r] = append(list[:pv], list[pv+1:]...)
	case pu > pv: // u sorts after v: the arcs between slide down one
		copy(list[pv:pu-1], list[pv+1:pu])
		list[pu-1] = arc{u, w}
	default: // u sorts before v: the arcs between slide up one
		copy(list[pu+1:pv+1], list[pu:pv])
		list[pu] = arc{u, w}
	}
}

// RemoveNode deletes n and all incident edges.
func (g *Graph) RemoveNode(n NodeID) {
	if !g.HasNode(n) {
		return
	}
	for _, a := range g.adj[n] {
		g.removeArc(a.v, n)
	}
	g.edges -= len(g.adj[n])
	g.adj[n] = nil
	g.present[n] = false
	g.nodes--
}

// Clone returns a deep copy whose neighbour lists share one backing array.
// The heaviest-edge selector is not copied (the clone rebuilds it lazily
// on its first HeaviestEdge call).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:     make([][]arc, len(g.adj)),
		present: slices.Clone(g.present),
		nodes:   g.nodes,
		edges:   g.edges,
	}
	backing := make([]arc, 2*g.edges)
	for u, list := range g.adj {
		n := copy(backing, list)
		c.adj[u] = slices.Clip(backing[:n])
		backing = backing[n:]
	}
	return c
}

// TotalWeight returns the sum of all edge weights (each undirected edge
// counted once).
func (g *Graph) TotalWeight() int64 {
	var total int64
	for u, list := range g.adj {
		i, _ := search(list, NodeID(u))
		for _, a := range list[i:] {
			total += a.w
		}
	}
	return total
}
