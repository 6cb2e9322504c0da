// Package core implements the paper's procedure-placement algorithm (GBSC,
// after Gloy, Blackwell, Smith and Calder): a greedy merge over TRG_select
// in which each merge searches all cache-relative alignments of the two
// nodes and scores them with the chunk-granularity TRG_place (Section 4),
// followed by the production of a final linear layout (Section 4.3). The
// set-associative extension of Section 6 replaces the alignment score with
// the pair database D(p,{r,s}).
package core

import (
	"repro/internal/place"
	"repro/internal/program"
)

// node is the working-graph payload: "a set of tuples. Each tuple consists
// of a procedure identifier and an offset, in cache lines, of the beginning
// of this procedure from the beginning of the cache" (Section 4.2).
type node struct {
	procs []place.Placed
}

func newNode(p program.ProcID) *node {
	// "For a node containing only a single procedure, the offset is zero."
	return &node{procs: []place.Placed{{Proc: p, Line: 0}}}
}

// shift adds delta cache lines (mod period) to every procedure offset.
func (n *node) shift(delta, period int) {
	for i := range n.procs {
		n.procs[i].Line = mod(n.procs[i].Line+delta, period)
	}
}

// absorb appends the procedures of other (already shifted) to n.
func (n *node) absorb(other *node) {
	n.procs = append(n.procs, other.procs...)
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// lineOccupancy maps each cache line (or set, for the associative variant)
// to the chunk IDs resident there under the node's current alignment.
// It is the CACHE array of the Figure 4 pseudo-code.
type lineOccupancy [][]program.ChunkID
