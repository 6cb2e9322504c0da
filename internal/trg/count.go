package trg

import (
	"math"

	"repro/internal/graph"
)

// maxDenseCells bounds the matrix a TRG counts in: a TRG of k possible
// nodes counts in a k×k matrix when k² is at most 2²¹ cells (8 MB of
// uint32 cells), and in graph.EdgeCounter above that, whatever the
// popular set. gcc's 1,096 popular 256-byte chunks take 4.8 MB; its
// popular set cut into 192-byte chunks (1,450) or its whole program
// (10,089 chunks, 407 MB) takes the table. The bound caps memory: just
// under it the matrix still builds in less than half the table's time.
const maxDenseCells = 1 << 21

// wrapLimit is the most activations the 32-bit matrix cells count before
// the builder moves them into 64-bit totals. A cell grows at most once per
// activation, since an activation touches each of its blocks once, so no
// cell exceeds wrapLimit and none can wrap. Tests lower it. 64-bit cells
// would need no hand-over, but they double every matrix and the bytes
// each build allocates.
var wrapLimit uint64 = math.MaxUint32

// counter counts one TRG's interleavings. Its k possible nodes are numbered
// densely in ascending ID order, so its Q runs on indices below k and
// ascending indices are ascending node IDs.
type counter struct {
	ids []BlockID // ids[i] is the node ID of index i
	// m is the row-major k×k matrix: m[a*k+b] counts the references to a
	// with b between them and a's previous reference. It is nil when k²
	// exceeds maxDenseCells; ec then counts, keyed by node ID.
	m []uint32
	// spilled holds the counts spill moved out of m, nil until the first
	// spill.
	spilled []int64
	seen    []bool // seen[i]: index i was referenced, so it is a node
	ec      graph.EdgeCounter
}

// newCounter returns a counter over the nodes ids, ascending IDs below
// numIDs.
func newCounter(ids []BlockID, numIDs int) counter {
	k := len(ids)
	if uint64(k)*uint64(k) > maxDenseCells {
		return counter{ids: ids, ec: graph.NewEdgeCounter(numIDs)}
	}
	return counter{ids: ids, m: make([]uint32, k*k), seen: make([]bool, k)}
}

// touch processes a reference to index i in q, counting an interleaving
// with every block between it and i's previous reference, and passing
// every pair of those blocks to pairs when it is non-nil.
func (c *counter) touch(q *Queue, i BlockID, size int, pairs func(r, s BlockID)) {
	var add func(b BlockID)
	if c.m != nil {
		c.seen[i] = true
		k := len(c.ids)
		row := c.m[int(i)*k : int(i+1)*k]
		if pairs == nil {
			q.Count(i, size, row)
			return
		}
		add = func(b BlockID) { row[b]++ }
	} else {
		id := c.ids[i]
		c.ec.AddNode(id)
		if pairs == nil {
			// Count's walk with one probe per interleaving, and no call
			// through a function value.
			if q.Contains(i) {
				for b := q.next[i]; b != none; b = q.next[b] {
					c.ec.Add(id, c.ids[b])
				}
			}
			q.push(i, size)
			return
		}
		add = func(b BlockID) { c.ec.Add(id, c.ids[b]) }
	}
	q.TouchPairs(i, size, add, pairs)
}

// spill moves the matrix counts into the 64-bit totals and zeroes the
// matrix.
func (c *counter) spill() {
	if c.m == nil {
		return
	}
	if c.spilled == nil {
		c.spilled = make([]int64, len(c.m))
	}
	for i, n := range c.m {
		c.spilled[i] += int64(n)
	}
	clear(c.m)
}

// graph builds the counted TRG as a fresh graph. The matrix folds in
// O(k²): edge {a,b}, a < b, weighs m[a][b] + m[b][a], and the edges come
// out in ascending (U,V) order, FromEdges' sorted path.
func (c *counter) graph() *graph.Graph {
	if c.m == nil {
		return c.ec.Graph()
	}
	k := len(c.ids)
	var nodes []graph.NodeID
	var edges []graph.Edge
	for a := 0; a < k; a++ {
		if !c.seen[a] {
			continue // never in Q, so never between two references
		}
		nodes = append(nodes, c.ids[a])
		for b := a + 1; b < k; b++ {
			w := int64(c.m[a*k+b]) + int64(c.m[b*k+a])
			if c.spilled != nil {
				w += c.spilled[a*k+b] + c.spilled[b*k+a]
			}
			if w != 0 {
				edges = append(edges, graph.Edge{U: c.ids[a], V: c.ids[b], W: w})
			}
		}
	}
	return graph.FromEdges(nodes, edges)
}
