package wcg

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/trace"
)

func prog3(t *testing.T) *program.Program {
	t.Helper()
	return program.MustNew([]program.Procedure{
		{Name: "a", Size: 32},
		{Name: "b", Size: 32},
		{Name: "c", Size: 32},
	})
}

func TestBuildCountsTransitions(t *testing.T) {
	p := prog3(t)
	tr := trace.MustFromNames(p, "a", "b", "a", "c", "a")
	g := Build(tr)
	if w := g.Weight(0, 1); w != 2 {
		t.Errorf("W(a,b) = %d, want 2 (call + return)", w)
	}
	if w := g.Weight(0, 2); w != 2 {
		t.Errorf("W(a,c) = %d, want 2", w)
	}
	if w := g.Weight(1, 2); w != 0 {
		t.Errorf("W(b,c) = %d, want 0", w)
	}
}

func TestBuildIgnoresSelfTransitions(t *testing.T) {
	p := prog3(t)
	tr := trace.MustFromNames(p, "a", "a", "a", "b")
	g := Build(tr)
	if w := g.Weight(0, 0); w != 0 {
		t.Errorf("self weight = %d", w)
	}
	if w := g.Weight(0, 1); w != 1 {
		t.Errorf("W(a,b) = %d, want 1", w)
	}
}

func TestBuildAddsIsolatedNodes(t *testing.T) {
	p := prog3(t)
	tr := trace.MustFromNames(p, "a")
	g := Build(tr)
	if !g.HasNode(0) {
		t.Error("singleton trace produced no node")
	}
	if g.NumEdges() != 0 {
		t.Error("singleton trace produced edges")
	}
}

func TestBuildFilteredBridgesFilteredProcs(t *testing.T) {
	p := prog3(t)
	// a and c are popular; b is the unpopular bridge: a b c b a ...
	tr := trace.MustFromNames(p, "a", "b", "c", "b", "a")
	keep := func(id program.ProcID) bool { return id != 1 }
	g := BuildFiltered(tr, keep)
	if g.HasNode(graph.NodeID(1)) {
		t.Error("filtered node present")
	}
	if w := g.Weight(0, 2); w != 2 {
		t.Errorf("bridged W(a,c) = %d, want 2", w)
	}
}

// oracleBuild is the per-event WCG builder this package used before it
// counted in the edge counter: every kept activation adds its node to the
// graph, and every transition adds 1 to its edge.
func oracleBuild(tr *trace.Trace, keep func(program.ProcID) bool) *graph.Graph {
	g := graph.New()
	prev := program.NoProc
	tr.ProcRefs(func(p program.ProcID) {
		if !keep(p) {
			return
		}
		g.AddNode(graph.NodeID(p))
		if prev != program.NoProc && prev != p {
			g.AddEdgeWeight(graph.NodeID(prev), graph.NodeID(p), 1)
		}
		prev = p
	})
	return g
}

// sameGraph reports the first difference between two graphs over node IDs
// below n, or "".
func sameGraph(got, want *graph.Graph, n int) string {
	if !slices.Equal(got.Nodes(), want.Nodes()) {
		return fmt.Sprintf("nodes %v, oracle %v", got.Nodes(), want.Nodes())
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		return fmt.Sprintf("edges %v, oracle %v", got.Edges(), want.Edges())
	}
	for u := graph.NodeID(0); int(u) < n; u++ {
		var a, b []graph.Edge
		got.Neighbors(u, func(v graph.NodeID, w int64) { a = append(a, graph.Edge{U: u, V: v, W: w}) })
		want.Neighbors(u, func(v graph.NodeID, w int64) { b = append(b, graph.Edge{U: u, V: v, W: w}) })
		if !slices.Equal(a, b) {
			return fmt.Sprintf("neighbours of %d: %v, oracle %v", u, a, b)
		}
	}
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		return fmt.Sprintf("counts %d/%d, oracle %d/%d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	return ""
}

// TestBuildMatchesOracle compares both builders against the per-event
// oracle on random traces with runs of self-transitions, under filters
// that keep everything, drop some procedures or drop all of them, and on
// the empty and one-event traces.
func TestBuildMatchesOracle(t *testing.T) {
	all := func(program.ProcID) bool { return true }
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		tr := &trace.Trace{}
		switch seed {
		case 0: // the empty trace
		case 1: // one event
			tr.Append(trace.Event{Proc: program.ProcID(rng.Intn(n))})
		default:
			for i := rng.Intn(400); i > 0; i-- {
				p := program.ProcID(rng.Intn(n))
				for r := rng.Intn(3); r >= 0; r-- { // self-transitions
					tr.Append(trace.Event{Proc: p})
				}
			}
		}
		if d := sameGraph(Build(tr), oracleBuild(tr, all), n); d != "" {
			t.Fatalf("seed %d: Build: %s", seed, d)
		}
		dropped := make([]bool, n)
		for p := range dropped {
			dropped[p] = rng.Intn(3) == 0 || seed%10 == 9
		}
		keep := func(p program.ProcID) bool { return !dropped[p] }
		if d := sameGraph(BuildFiltered(tr, keep), oracleBuild(tr, keep), n); d != "" {
			t.Fatalf("seed %d: BuildFiltered: %s", seed, d)
		}
	}
}
