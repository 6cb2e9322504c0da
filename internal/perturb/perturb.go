// Package perturb implements the profile-randomization methodology of
// Section 5.1: simulating many slightly different application inputs by
// applying multiplicative lognormal noise to the edge weights of a profile
// graph, ŵ = w·exp(sX) with X ~ N(0,1).
//
// Multiplicative noise is used because additive noise could drive weights
// negative and because reasonable values of the scale s are independent of
// the magnitudes of the initial weights. The paper uses s = 0.1.
package perturb

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// DefaultScale is the perturbation magnitude used in the paper's
// experiments (Section 5.1).
const DefaultScale = 0.1

// Graph returns a copy of g with every edge weight w replaced by
// round(w·exp(s·X)), X ~ N(0,1), drawn from rng. Weights are kept at least
// 1 so that perturbation never deletes an edge (a deleted edge would change
// the working-graph topology, which randomized inputs do not do). The
// weights are drawn in (U,V) order.
func Graph(g *graph.Graph, s float64, rng *rand.Rand) *graph.Graph {
	es := g.Edges()
	for i := range es {
		es[i].W = Weight(es[i].W, s, rng)
	}
	return graph.FromEdges(g.Nodes(), es)
}

// Weight perturbs a single weight: round(w·exp(s·X)), minimum 1.
func Weight(w int64, s float64, rng *rand.Rand) int64 {
	factor := math.Exp(s * rng.NormFloat64())
	p := int64(math.Round(float64(w) * factor))
	if p < 1 {
		p = 1
	}
	return p
}
