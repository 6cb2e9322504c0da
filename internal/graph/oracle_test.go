package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mapGraph is the map-of-maps Graph this package kept before the sorted
// neighbour slices, retained as the reference oracle for the differential
// tests: every ordered result sorts what the maps hold, and HeaviestEdge
// is the O(E) scan.
type mapGraph struct {
	adj map[NodeID]map[NodeID]int64
}

func newMapGraph() *mapGraph {
	return &mapGraph{adj: make(map[NodeID]map[NodeID]int64)}
}

// mapFromEdges is FromEdges on the oracle: the nodes, then one weight
// addition per edge.
func mapFromEdges(nodes []NodeID, edges []Edge) *mapGraph {
	g := newMapGraph()
	for _, n := range nodes {
		g.AddNode(n)
	}
	for _, e := range edges {
		g.AddEdgeWeight(e.U, e.V, e.W)
	}
	return g
}

func (g *mapGraph) AddNode(n NodeID) {
	if _, ok := g.adj[n]; !ok {
		g.adj[n] = make(map[NodeID]int64)
	}
}

func (g *mapGraph) HasNode(n NodeID) bool {
	_, ok := g.adj[n]
	return ok
}

func (g *mapGraph) AddEdgeWeight(u, v NodeID, w int64) {
	if u == v {
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	g.adj[u][v] += w
	g.adj[v][u] += w
}

func (g *mapGraph) Weight(u, v NodeID) int64 {
	if m, ok := g.adj[u]; ok {
		return m[v]
	}
	return 0
}

func (g *mapGraph) SetWeight(u, v NodeID, w int64) {
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
}

func (g *mapGraph) NumNodes() int { return len(g.adj) }

func (g *mapGraph) NumEdges() int {
	total := 0
	for _, m := range g.adj {
		total += len(m)
	}
	return total / 2
}

func (g *mapGraph) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(g.adj))
	for n := range g.adj {
		ids = append(ids, n)
	}
	slices.Sort(ids)
	return ids
}

func (g *mapGraph) Neighbors(n NodeID, fn func(v NodeID, w int64)) {
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

func (g *mapGraph) Degree(n NodeID) int { return len(g.adj[n]) }

func (g *mapGraph) Edges() []Edge {
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

// HeaviestEdge is the O(E) scan under the (W desc, U asc, V asc) order.
func (g *mapGraph) HeaviestEdge() (e Edge, ok bool) {
	for u, m := range g.adj {
		for v, w := range m {
			if u > v {
				continue
			}
			if !ok || w > e.W || (w == e.W && (u < e.U || (u == e.U && v < e.V))) {
				e = Edge{U: u, V: v, W: w}
				ok = true
			}
		}
	}
	return e, ok
}

func (g *mapGraph) MergeNodes(u, v NodeID) {
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
	}
	delete(g.adj[u], v)
	delete(g.adj, v)
}

func (g *mapGraph) RemoveNode(n NodeID) {
	m, ok := g.adj[n]
	if !ok {
		return
	}
	for v := range m {
		delete(g.adj[v], n)
	}
	delete(g.adj, n)
}

func (g *mapGraph) Clone() *mapGraph {
	c := &mapGraph{adj: make(map[NodeID]map[NodeID]int64, len(g.adj))}
	for u, m := range g.adj {
		cm := make(map[NodeID]int64, len(m))
		for v, w := range m {
			cm[v] = w
		}
		c.adj[u] = cm
	}
	return c
}

func (g *mapGraph) TotalWeight() int64 {
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

// neighborList records a node's Neighbors walk in visit order.
func neighborList(walk func(NodeID, func(NodeID, int64)), n NodeID) []Edge {
	var out []Edge
	walk(n, func(v NodeID, w int64) { out = append(out, Edge{U: n, V: v, W: w}) })
	return out
}

// sameAsOracle returns a description of the first observable difference
// between g and the oracle o, or "" if there is none. Node IDs below
// limit are probed, plus negative and far out-of-range ones.
func sameAsOracle(g *Graph, o *mapGraph, limit NodeID) string {
	if g.NumNodes() != o.NumNodes() || g.NumEdges() != o.NumEdges() {
		return fmt.Sprintf("counts %d nodes %d edges, oracle %d and %d", g.NumNodes(), g.NumEdges(), o.NumNodes(), o.NumEdges())
	}
	if got, want := g.Nodes(), o.Nodes(); !slices.Equal(got, want) {
		return fmt.Sprintf("Nodes = %v, oracle %v", got, want)
	}
	if got, want := g.Edges(), o.Edges(); !slices.Equal(got, want) {
		return fmt.Sprintf("Edges = %v, oracle %v", got, want)
	}
	if got, want := g.TotalWeight(), o.TotalWeight(); got != want {
		return fmt.Sprintf("TotalWeight = %d, oracle %d", got, want)
	}
	probe := []NodeID{-1, -7, limit, limit + 40, 1 << 30}
	for n := NodeID(0); n < limit; n++ {
		probe = append(probe, n)
	}
	for _, u := range probe {
		if g.HasNode(u) != o.HasNode(u) || g.Degree(u) != o.Degree(u) {
			return fmt.Sprintf("node %d: HasNode %v degree %d, oracle %v and %d", u, g.HasNode(u), g.Degree(u), o.HasNode(u), o.Degree(u))
		}
		if got, want := neighborList(g.Neighbors, u), neighborList(o.Neighbors, u); !slices.Equal(got, want) {
			return fmt.Sprintf("Neighbors(%d) = %v, oracle %v", u, got, want)
		}
		for _, v := range probe {
			if got, want := g.Weight(u, v), o.Weight(u, v); got != want {
				return fmt.Sprintf("Weight(%d,%d) = %d, oracle %d", u, v, got, want)
			}
		}
	}
	got, gotOK := g.HeaviestEdge()
	want, wantOK := o.HeaviestEdge()
	if got != want || gotOK != wantOK {
		return fmt.Sprintf("HeaviestEdge = %v,%v, oracle %v,%v", got, gotOK, want, wantOK)
	}
	return ""
}

// randomEdges draws distinct U < V edges over nodes [0, n), weights in
// [0, 40], in random order unless sorted.
func randomEdges(rng *rand.Rand, n NodeID, count int, sorted bool) []Edge {
	seen := make(map[Edge]bool)
	var es []Edge
	for i := 0; i < count; i++ {
		u, v := NodeID(rng.Intn(int(n))), NodeID(rng.Intn(int(n)))
		if u == v {
			continue
		}
		k := Edge{U: min(u, v), V: max(u, v)}
		if seen[k] {
			continue
		}
		seen[k] = true
		k.W = int64(rng.Intn(41))
		es = append(es, k)
	}
	if sorted {
		slices.SortFunc(es, func(a, b Edge) int {
			if a.U != b.U {
				return cmp.Compare(a.U, b.U)
			}
			return cmp.Compare(a.V, b.V)
		})
	}
	return es
}

// TestGraphMatchesMapOracle drives the same random operations through the
// sorted-slice Graph and the map oracle, and compares every observable
// after every step: the heaviest-edge merges of the placement loops,
// arbitrary merges, zero-weight edges against deleted ones, clones mutated
// independently of their sources, and bulk builds in sorted and unsorted
// edge order.
func TestGraphMatchesMapOracle(t *testing.T) {
	type pair struct {
		g *Graph
		o *mapGraph
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NodeID(rng.Intn(24) + 2)
		node := func() NodeID { return NodeID(rng.Intn(int(n))) }
		pairs := []pair{{New(), newMapGraph()}}
		for step := 0; step < 80; step++ {
			k := rng.Intn(len(pairs))
			p := &pairs[k]
			var op string
			switch rng.Intn(12) {
			case 0:
				u := node()
				op = fmt.Sprintf("AddNode(%d)", u)
				p.g.AddNode(u)
				p.o.AddNode(u)
			case 1, 2, 3:
				u, v, w := node(), node(), int64(rng.Intn(30))
				op = fmt.Sprintf("AddEdgeWeight(%d,%d,%d)", u, v, w)
				p.g.AddEdgeWeight(u, v, w)
				p.o.AddEdgeWeight(u, v, w)
			case 4:
				u, v, w := node(), node(), int64(rng.Intn(4))
				op = fmt.Sprintf("SetWeight(%d,%d,%d)", u, v, w)
				p.g.SetWeight(u, v, w)
				p.o.SetWeight(u, v, w)
			case 5, 6:
				e, ok := p.o.HeaviestEdge()
				op = fmt.Sprintf("MergeNodes(heaviest %v)", e)
				if ok {
					p.g.MergeNodes(e.U, e.V)
					p.o.MergeNodes(e.U, e.V)
				}
			case 7:
				u, v := node(), node()
				op = fmt.Sprintf("MergeNodes(%d,%d)", u, v)
				p.g.MergeNodes(u, v)
				p.o.MergeNodes(u, v)
			case 8:
				u := node()
				op = fmt.Sprintf("RemoveNode(%d)", u)
				p.g.RemoveNode(u)
				p.o.RemoveNode(u)
			case 9:
				op = "Clone"
				if len(pairs) < 3 {
					pairs = append(pairs, pair{p.g.Clone(), p.o.Clone()})
				} else {
					pairs[rng.Intn(len(pairs))] = pair{p.g.Clone(), p.o.Clone()}
				}
			case 10, 11:
				var nodes []NodeID
				for i := rng.Intn(5); i > 0; i-- {
					nodes = append(nodes, node())
				}
				sorted := rng.Intn(2) == 0
				es := randomEdges(rng, n, rng.Intn(3*int(n)), sorted)
				op = fmt.Sprintf("FromEdges(%v, %v)", nodes, es)
				*p = pair{FromEdges(nodes, es), mapFromEdges(nodes, es)}
			}
			for i, q := range pairs {
				if d := sameAsOracle(q.g, q.o, n); d != "" {
					t.Fatalf("seed %d step %d (%s on graph %d): graph %d: %s", seed, step, op, k, i, d)
				}
			}
		}
	}
}

// TestFromEdgesOrderIndependent builds the same edges in ascending and in
// shuffled order: both graphs must equal the oracle, and the input slice
// must not be reordered.
func TestFromEdgesOrderIndependent(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NodeID(rng.Intn(40) + 2)
		es := randomEdges(rng, n, 4*int(n), true)
		shuffled := slices.Clone(es)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		before := slices.Clone(shuffled)
		nodes := []NodeID{n - 1, 0}
		o := mapFromEdges(nodes, es)
		for _, in := range [][]Edge{es, shuffled} {
			if d := sameAsOracle(FromEdges(nodes, in), o, n); d != "" {
				t.Fatalf("seed %d: %s", seed, d)
			}
		}
		if !slices.Equal(shuffled, before) {
			t.Fatalf("seed %d: FromEdges reordered its input", seed)
		}
	}
}

func TestFromEdgesRejectsBadEdges(t *testing.T) {
	for name, es := range map[string][]Edge{
		"self-loop":         {{U: 2, V: 2, W: 1}},
		"U > V":             {{U: 3, V: 1, W: 1}},
		"negative":          {{U: -1, V: 1, W: 1}},
		"repeat, sorted":    {{U: 1, V: 2, W: 1}, {U: 1, V: 2, W: 4}},
		"repeat, unsorted":  {{U: 1, V: 2, W: 1}, {U: 0, V: 3, W: 1}, {U: 1, V: 2, W: 4}},
		"negative isolated": nil,
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("FromEdges(%v) did not panic", es)
				}
			}()
			nodes := []NodeID{0}
			if es == nil {
				nodes = []NodeID{-2}
			}
			FromEdges(nodes, es)
		})
	}
}

// TestEdgeCounterMatchesOracle counts random node and edge events and
// compares the built graph, whose edges leave the counter in hash order,
// against the oracle that adds each event's weight as it comes.
func TestEdgeCounterMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NodeID(rng.Intn(100) + 2)
		c := NewEdgeCounter(int(n))
		o := newMapGraph()
		for i := rng.Intn(2000); i > 0; i-- {
			u, v := NodeID(rng.Intn(int(n))), NodeID(rng.Intn(int(n)))
			c.AddNode(u)
			o.AddNode(u)
			if u != v {
				c.Add(u, v)
				o.AddEdgeWeight(u, v, 1)
			}
		}
		g := c.Graph()
		if d := sameAsOracle(g, o, n); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		if c.Len() != g.NumEdges() {
			t.Fatalf("seed %d: counter holds %d keys for %d edges", seed, c.Len(), g.NumEdges())
		}
	}
}

func TestCounterGetAndEach(t *testing.T) {
	c := NewCounter()
	want := make(map[uint64]int64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(900)+1) << uint(rng.Intn(40))
		c.Inc(k)
		want[k]++
	}
	if c.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(want))
	}
	seen := 0
	c.Each(func(k uint64, n int64) {
		seen++
		if want[k] != n {
			t.Fatalf("Each: key %#x count %d, want %d", k, n, want[k])
		}
	})
	if seen != len(want) {
		t.Fatalf("Each visited %d keys, want %d", seen, len(want))
	}
	for k, n := range want {
		if got := c.Get(k); got != n {
			t.Fatalf("Get(%#x) = %d, want %d", k, got, n)
		}
	}
	if got := c.Get(12345 << 41); got != 0 {
		t.Fatalf("Get of an uncounted key = %d", got)
	}
}
