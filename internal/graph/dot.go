package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT serializes the graph in Graphviz DOT format for visual
// inspection of WCGs and TRGs. label maps node IDs to display names (nil
// uses the numeric ID); edges below minWeight are omitted to keep large
// TRGs readable.
func (g *Graph) WriteDOT(w io.Writer, name string, label func(NodeID) string, minWeight int64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "graph %q {\n  node [shape=box];\n", name); err != nil {
		return err
	}
	nameOf := func(n NodeID) string {
		if label != nil {
			return label(n)
		}
		return fmt.Sprintf("n%d", n)
	}
	// Emit nodes that either have a heavy edge or are isolated.
	emitted := make([]bool, len(g.adj))
	for _, e := range g.Edges() {
		if e.W < minWeight {
			continue
		}
		for _, n := range [2]NodeID{e.U, e.V} {
			if !emitted[n] {
				if _, err := fmt.Fprintf(bw, "  %q;\n", nameOf(n)); err != nil {
					return err
				}
				emitted[n] = true
			}
		}
		if _, err := fmt.Fprintf(bw, "  %q -- %q [label=\"%d\"];\n",
			nameOf(e.U), nameOf(e.V), e.W); err != nil {
			return err
		}
	}
	for _, n := range g.Nodes() {
		if !emitted[n] && g.Degree(n) == 0 {
			if _, err := fmt.Fprintf(bw, "  %q;\n", nameOf(n)); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
