// Package baseline implements the comparison placement algorithms of the
// paper's evaluation: the Pettis & Hansen procedure-placement algorithm
// (PH, Section 2), the cache-line-coloring algorithm of Hashemi, Kaeli and
// Calder (HKC, Section 5), and random layouts.
package baseline

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/program"
)

// chain is PH's node payload: a linear list of procedures placed at adjacent
// addresses.
type chain struct {
	procs []program.ProcID
	size  int // total bytes
}

func (c *chain) reversed() []program.ProcID {
	out := make([]program.ProcID, len(c.procs))
	for i, p := range c.procs {
		out[len(c.procs)-1-i] = p
	}
	return out
}

// PH computes the Pettis & Hansen procedure order from the transition-count
// graph g (see package wcg). The returned order covers exactly the nodes of
// g; callers append never-executed procedures afterwards (see PHLayout).
//
// The algorithm follows Section 2: repeatedly merge the two nodes joined by
// the heaviest working-graph edge. Merging combines the two chains in one of
// the four ways AB, AB', A'B, A'B', choosing the combination that minimizes
// the distance in bytes between the procedures p and q connected by the
// heaviest original-graph edge across the two chains.
func PH(prog *program.Program, g *graph.Graph) []program.ProcID {
	original := g
	working := g.Clone()

	chains := make(map[graph.NodeID]*chain)
	for _, n := range working.Nodes() {
		p := program.ProcID(n)
		chains[n] = &chain{procs: []program.ProcID{p}, size: prog.Size(p)}
	}

	for {
		e, ok := working.HeaviestEdge()
		if !ok {
			break
		}
		a, b := chains[e.U], chains[e.V]
		merged := mergeChains(prog, original, a, b)
		working.MergeNodes(e.U, e.V)
		chains[e.U] = merged
		delete(chains, e.V)
	}

	// Concatenate the surviving chains: heaviest (by total byte size of
	// member procedures weighted by original incident edge weight) first;
	// deterministic tie-break by first procedure ID.
	type rem struct {
		c *chain
		w int64
	}
	var rems []rem
	for _, n := range sortedKeys(chains) {
		c := chains[n]
		var w int64
		for _, p := range c.procs {
			original.Neighbors(graph.NodeID(p), func(_ graph.NodeID, ew int64) { w += ew })
		}
		rems = append(rems, rem{c: c, w: w})
	}
	sort.SliceStable(rems, func(i, j int) bool {
		if rems[i].w != rems[j].w {
			return rems[i].w > rems[j].w
		}
		return rems[i].c.procs[0] < rems[j].c.procs[0]
	})

	var order []program.ProcID
	for _, r := range rems {
		order = append(order, r.c.procs...)
	}
	return order
}

func sortedKeys(m map[graph.NodeID]*chain) []graph.NodeID {
	ks := make([]graph.NodeID, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// mergeChains combines chains a and b per the PH heuristic.
func mergeChains(prog *program.Program, original *graph.Graph, a, b *chain) *chain {
	// Find the heaviest original edge between a procedure p in a and q in b.
	inB := make(map[program.ProcID]bool, len(b.procs))
	for _, q := range b.procs {
		inB[q] = true
	}
	var bestP, bestQ program.ProcID = a.procs[0], b.procs[0]
	var bestW int64 = -1
	for _, p := range a.procs {
		// The (w, p, q) tie-break is a total order, so the winner does not
		// depend on the chain's order.
		original.Neighbors(graph.NodeID(p), func(v graph.NodeID, w int64) {
			q := program.ProcID(v)
			if !inB[q] {
				return
			}
			if w > bestW || (w == bestW && (p < bestP || (p == bestP && q < bestQ))) {
				bestP, bestQ, bestW = p, q, w
			}
		})
	}

	// Evaluate AB, AB', A'B, A'B' and keep the one minimizing the byte
	// distance between bestP and bestQ.
	candidates := [][]program.ProcID{
		concat(a.procs, b.procs),
		concat(a.procs, b.reversed()),
		concat(a.reversed(), b.procs),
		concat(a.reversed(), b.reversed()),
	}
	bestIdx, bestDist := 0, int(^uint(0)>>1)
	for i, cand := range candidates {
		d := byteDistance(prog, cand, bestP, bestQ)
		if d < bestDist {
			bestIdx, bestDist = i, d
		}
	}
	return &chain{procs: candidates[bestIdx], size: a.size + b.size}
}

func concat(a, b []program.ProcID) []program.ProcID {
	out := make([]program.ProcID, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// byteDistance returns the distance in bytes between the start addresses of
// p and q when the chain is packed back to back from address 0.
func byteDistance(prog *program.Program, chain []program.ProcID, p, q program.ProcID) int {
	addr := 0
	pa, qa := -1, -1
	for _, r := range chain {
		if r == p {
			pa = addr
		}
		if r == q {
			qa = addr
		}
		addr += prog.Size(r)
	}
	d := pa - qa
	if d < 0 {
		d = -d
	}
	return d
}

// PHLayout runs PH and produces a complete layout: the PH order for the
// procedures present in g, followed by all remaining procedures of the
// program in their original order.
func PHLayout(prog *program.Program, g *graph.Graph) (*program.Layout, error) {
	order := PH(prog, g)
	placed := make([]bool, prog.NumProcs())
	for _, p := range order {
		placed[p] = true
	}
	for p := 0; p < prog.NumProcs(); p++ {
		if !placed[p] {
			order = append(order, program.ProcID(p))
		}
	}
	return program.OrderedLayout(prog, order)
}
