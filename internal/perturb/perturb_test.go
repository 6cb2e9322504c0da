package perturb

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestWeightStaysPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if w := Weight(1, 2.0, rng); w < 1 {
			t.Fatalf("perturbed weight %d < 1", w)
		}
	}
}

func TestWeightZeroScaleIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int64{1, 7, 1000, 1 << 40} {
		if got := Weight(w, 0, rng); got != w {
			t.Errorf("Weight(%d, 0) = %d", w, got)
		}
	}
}

func TestWeightIsMultiplicative(t *testing.T) {
	// With s = 0.1 the multiplicative factor stays within exp(±5s) except
	// astronomically rarely, i.e. roughly within ±65%.
	rng := rand.New(rand.NewSource(42))
	const w = 1_000_000
	for i := 0; i < 10_000; i++ {
		got := Weight(w, DefaultScale, rng)
		f := float64(got) / w
		if f < math.Exp(-0.6) || f > math.Exp(0.6) {
			t.Fatalf("factor %v outside plausible lognormal range", f)
		}
	}
}

func TestWeightDeterministicPerSeed(t *testing.T) {
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if Weight(500, 0.1, a) != Weight(500, 0.1, b) {
			t.Fatal("same seed produced different perturbations")
		}
	}
}

func TestGraphPreservesTopology(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		for i := 0; i < 30; i++ {
			u, v := graph.NodeID(rng.Intn(10)), graph.NodeID(rng.Intn(10))
			if u != v {
				g.AddEdgeWeight(u, v, int64(rng.Intn(1000)+1))
			}
		}
		p := Graph(g, 0.1, rng)
		if p.NumNodes() != g.NumNodes() || p.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if p.Weight(e.U, e.V) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGraphLeavesOriginalUntouched(t *testing.T) {
	g := graph.New()
	g.AddEdgeWeight(1, 2, 100)
	rng := rand.New(rand.NewSource(3))
	_ = Graph(g, 1.0, rng)
	if g.Weight(1, 2) != 100 {
		t.Error("perturbation mutated the input graph")
	}
}

// oracleGraph is the perturbation this package used before the bulk
// graph constructor: a fresh graph, every node added, then one SetWeight
// per edge in (U,V) order.
func oracleGraph(g *graph.Graph, s float64, rng *rand.Rand) *graph.Graph {
	out := graph.New()
	for _, n := range g.Nodes() {
		out.AddNode(n)
	}
	for _, e := range g.Edges() {
		out.SetWeight(e.U, e.V, Weight(e.W, s, rng))
	}
	return out
}

// TestGraphMatchesOracle perturbs random graphs, isolated nodes and
// zero-weight edges included, with two generators of one seed: Graph and
// the oracle must give the same nodes, edges and neighbour lists, and
// leave both generators at the same next draw.
func TestGraphMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		g := graph.New()
		for i := rng.Intn(3 * n); i > 0; i-- {
			g.AddEdgeWeight(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), int64(rng.Intn(1000)))
		}
		for i := rng.Intn(4); i > 0; i-- {
			g.AddNode(graph.NodeID(rng.Intn(n + 5)))
		}
		s := []float64{0, DefaultScale, 1}[seed%3]
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := Graph(g, s, a), oracleGraph(g, s, b)
		if !slices.Equal(got.Nodes(), want.Nodes()) || !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("seed %d: Graph = %v %v, oracle %v %v", seed, got.Nodes(), got.Edges(), want.Nodes(), want.Edges())
		}
		for _, u := range want.Nodes() {
			var x, y []graph.Edge
			got.Neighbors(u, func(v graph.NodeID, w int64) { x = append(x, graph.Edge{U: u, V: v, W: w}) })
			want.Neighbors(u, func(v graph.NodeID, w int64) { y = append(y, graph.Edge{U: u, V: v, W: w}) })
			if !slices.Equal(x, y) {
				t.Fatalf("seed %d: neighbours of %d = %v, oracle %v", seed, u, x, y)
			}
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("seed %d: next draw %d, oracle %d", seed, x, y)
		}
	}
}
