package graph

import "math/bits"

// Counter counts events by packed key in an open-addressed table, with
// linear probing over a power-of-two number of slots that doubles at half
// load. Key 0 marks an empty slot, so no counted key may pack to it. It
// counts the edges of the WCGs and the TRGs (through EdgeCounter) and the
// Section 6 pair database alike.
type Counter struct {
	slots []countSlot
	shift uint // 64 − log2(len(slots)): hash bits kept by slotOf
	used  int
}

type countSlot struct {
	key uint64
	n   int64
}

// counterSlots is the initial table size, small so that the tiny TRGs of
// exhaustive search stay cheap to build.
const counterSlots = 64

// NewCounter returns an empty counter.
func NewCounter() Counter {
	var c Counter
	c.resize(counterSlots)
	return c
}

// Inc counts one event of the non-zero key.
func (c *Counter) Inc(key uint64) {
	mask := uint64(len(c.slots) - 1)
	for i := c.slotOf(key); ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.key == key {
			s.n++
			return
		}
		if s.key == 0 {
			s.key, s.n = key, 1
			c.used++
			if 2*c.used > len(c.slots) {
				c.resize(2 * len(c.slots))
			}
			return
		}
	}
}

// Get returns the count of the non-zero key.
func (c *Counter) Get(key uint64) int64 {
	mask := uint64(len(c.slots) - 1)
	for i := c.slotOf(key); ; i = (i + 1) & mask {
		if s := c.slots[i]; s.key == key || s.key == 0 {
			return s.n
		}
	}
}

// Len returns the number of distinct keys counted.
func (c *Counter) Len() int { return c.used }

// Each calls fn with every counted key and its count, in table order: a
// deterministic function of the keys counted and their insertion order,
// but not sorted.
func (c *Counter) Each(fn func(key uint64, n int64)) {
	for _, s := range c.slots {
		if s.key != 0 {
			fn(s.key, s.n)
		}
	}
}

// slotOf is the home slot of key: Fibonacci hashing, keeping the top bits
// of the product so the low half of the key mixes into the index.
func (c *Counter) slotOf(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> c.shift
}

// resize rehashes the table into n slots, a power of two.
func (c *Counter) resize(n int) {
	old := c.slots
	c.slots = make([]countSlot, n)
	c.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := c.slotOf(s.key)
		for c.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = s
	}
}

// EdgeCounter accumulates one profile graph, a WCG or a TRG: the nodes in
// first-seen order and the count of every edge, keyed by the packed
// (lo, hi) node pair. No edge packs to key 0 because lo < hi.
type EdgeCounter struct {
	Counter
	nodes []NodeID
	seen  []bool // seen[id]: id is in nodes
}

// NewEdgeCounter returns an empty counter for node IDs below numIDs.
func NewEdgeCounter(numIDs int) EdgeCounter {
	return EdgeCounter{Counter: NewCounter(), seen: make([]bool, numIDs)}
}

// AddNode records id as a node, even if it never gains an edge.
func (c *EdgeCounter) AddNode(id NodeID) {
	if !c.seen[id] {
		c.seen[id] = true
		c.nodes = append(c.nodes, id)
	}
}

// Add counts one event of the edge between nodes u and v, which must
// differ.
func (c *EdgeCounter) Add(u, v NodeID) {
	if u > v {
		u, v = v, u
	}
	c.Inc(uint64(u)<<32 | uint64(v))
}

// Graph builds the counted graph as a fresh graph, each edge weighing its
// count, in O(N + E) through FromEdges.
func (c *EdgeCounter) Graph() *Graph {
	es := make([]Edge, 0, c.used)
	for _, s := range c.slots {
		if s.key != 0 {
			es = append(es, Edge{U: NodeID(s.key >> 32), V: NodeID(uint32(s.key)), W: s.n})
		}
	}
	return FromEdges(c.nodes, es)
}
