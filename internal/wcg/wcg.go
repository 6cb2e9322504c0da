// Package wcg builds the weighted call graph used by Pettis & Hansen style
// placement and by HKC.
//
// Following Section 2 of the paper, the graph is undirected and the weight
// W(e_p,q) is the total number of control-flow transitions between
// procedures p and q in the trace — each call contributes a transition
// caller→callee and (typically) a matching return callee→caller, so weights
// are about twice those of a classic call-count WCG. The factor of two does
// not change the placements PH produces.
package wcg

import (
	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/trace"
)

// Build constructs the transition-count WCG from a procedure-level trace.
// Consecutive activations of the same procedure (e.g. a loop that re-enters
// an already-running procedure representation) contribute no transition.
func Build(tr *trace.Trace) *graph.Graph { return count(tr, nil) }

// BuildFiltered constructs the WCG restricted to procedures for which keep
// returns true. Transitions through filtered-out procedures connect the
// surrounding kept procedures, mirroring how HKC and GBSC consider only
// popular procedures: "it is possible to have the only connection between
// two popular procedures be through an unpopular procedure" (Section 4.3) —
// the filtered WCG preserves that connection.
func BuildFiltered(tr *trace.Trace, keep func(program.ProcID) bool) *graph.Graph {
	return count(tr, keep)
}

// count counts the transitions between consecutive kept activations in the
// edge counter the TRG builder counts in, and builds the graph once at the
// end. A nil keep keeps every procedure.
func count(tr *trace.Trace, keep func(program.ProcID) bool) *graph.Graph {
	numIDs := 0
	for _, e := range tr.Events {
		numIDs = max(numIDs, int(e.Proc)+1)
	}
	c := graph.NewEdgeCounter(numIDs)
	prev := program.NoProc
	for _, e := range tr.Events {
		// A repeat of the kept prev is kept, already a node, and no
		// transition.
		p := e.Proc
		if p == prev || keep != nil && !keep(p) {
			continue
		}
		c.AddNode(graph.NodeID(p))
		if prev != program.NoProc {
			c.Add(graph.NodeID(prev), graph.NodeID(p))
		}
		prev = p
	}
	return c.Graph()
}
