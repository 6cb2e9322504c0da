package graph

// edgeSelector is the indexed heaviest-edge heap behind HeaviestEdge. It is
// a max-heap of Edge entries ordered by (W desc, U asc, V asc) — the exact
// total order of the original linear scan — with lazy invalidation: weight
// updates push fresh entries instead of reheapifying, and out-of-date
// entries are discarded when they surface at the top. Every live edge
// always has at least one entry carrying its current weight, so the first
// valid entry at the top is exactly the edge the O(E) scan would return,
// in O(log E) amortized per pop instead.
//
// The selector is built lazily by the first HeaviestEdge call; graphs that
// never select edges (TRG/WCG construction, serialization) pay nothing.
type edgeSelector struct {
	entries []Edge
	// pops counts heap-top examinations across HeaviestEdge calls; stale
	// counts the subset that were out of date and discarded. pops-stale is
	// the number of successful selections.
	pops  int64
	stale int64
}

// edgeBefore reports whether a must pop before b: heavier first, ties by
// smallest (U,V). This is the comparator HeaviestEdge documents.
func edgeBefore(a, b Edge) bool {
	if a.W != b.W {
		return a.W > b.W
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// push inserts a fresh entry for an edge whose weight just changed.
func (s *edgeSelector) push(e Edge) {
	s.entries = append(s.entries, e)
	s.siftUp(len(s.entries) - 1)
}

// popTop removes the root entry.
func (s *edgeSelector) popTop() {
	last := len(s.entries) - 1
	s.entries[0] = s.entries[last]
	s.entries = s.entries[:last]
	if last > 0 {
		s.siftDown(0)
	}
}

// heapify establishes the heap property over entries in O(n).
func (s *edgeSelector) heapify() {
	for i := len(s.entries)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

func (s *edgeSelector) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !edgeBefore(s.entries[i], s.entries[parent]) {
			return
		}
		s.entries[i], s.entries[parent] = s.entries[parent], s.entries[i]
		i = parent
	}
}

func (s *edgeSelector) siftDown(i int) {
	n := len(s.entries)
	for {
		best := i
		if l := 2*i + 1; l < n && edgeBefore(s.entries[l], s.entries[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && edgeBefore(s.entries[r], s.entries[best]) {
			best = r
		}
		if best == i {
			return
		}
		s.entries[i], s.entries[best] = s.entries[best], s.entries[i]
		i = best
	}
}

// notifyEdge records the new weight of edge (u,v) in the selector, if one
// is active. Callers pass the post-update weight; deletions need no entry
// because existing entries for a vanished edge fail the liveness check.
func (g *Graph) notifyEdge(u, v NodeID, w int64) {
	if g.sel == nil {
		return
	}
	if u > v {
		u, v = v, u
	}
	g.sel.push(Edge{U: u, V: v, W: w})
}

// buildSelector snapshots every current edge into a fresh heap.
func (g *Graph) buildSelector() {
	s := &edgeSelector{entries: make([]Edge, 0, g.NumEdges())}
	for u, m := range g.adj {
		for v, w := range m {
			if u < v {
				s.entries = append(s.entries, Edge{U: u, V: v, W: w})
			}
		}
	}
	s.heapify()
	g.sel = s
}

// SelectorStats returns the cumulative effort counters of the indexed
// heaviest-edge selector: pops is the number of heap-top examinations and
// stale the number of out-of-date entries discarded. Both are zero until
// the first HeaviestEdge call activates the selector.
func (g *Graph) SelectorStats() (pops, stale int64) {
	if g.sel == nil {
		return 0, 0
	}
	return g.sel.pops, g.sel.stale
}
