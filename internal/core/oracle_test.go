package core

import (
	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/trg"
)

// bestAlignment implements the offset search of merge_nodes (Figure 4): it
// evaluates every cache-relative offset of n2 with respect to n1 and returns
// the offset with the lowest conflict metric, taking the first of equal-cost
// offsets.
//
// This is the naive O(C²·occ²) implementation, kept (together with
// occupancy and bestAlignmentAssoc) as the reference oracle for the
// edge-driven fast engines in align.go. The metric for offset i is
//
//	Σ_j Σ_{p1 ∈ c1[(j+i) mod C]} Σ_{p2 ∈ c2[j]} W_place(p1, p2)
//
// which we compute in a single pass over line pairs: the pair of occupied
// lines (l1, l2) contributes its chunk-pair weight to cost[(l1-l2) mod C].
func bestAlignment(n1, n2 *node, placeG *graph.Graph, chunker *program.Chunker, prog *program.Program, lineBytes, period int) (offset int, cost int64) {
	return firstMin(alignCosts(n1, n2, placeG, chunker, prog, lineBytes, period))
}

// alignCosts is bestAlignment's cost of every offset.
func alignCosts(n1, n2 *node, placeG *graph.Graph, chunker *program.Chunker, prog *program.Program, lineBytes, period int) []int64 {
	c1 := occupancy(n1, chunker, prog, lineBytes, period)
	c2 := occupancy(n2, chunker, prog, lineBytes, period)

	costs := make([]int64, period)
	for l1 := 0; l1 < period; l1++ {
		if len(c1[l1]) == 0 {
			continue
		}
		for l2 := 0; l2 < period; l2++ {
			if len(c2[l2]) == 0 {
				continue
			}
			var w int64
			for _, p1 := range c1[l1] {
				for _, p2 := range c2[l2] {
					w += placeG.Weight(graph.NodeID(p1), graph.NodeID(p2))
				}
			}
			if w != 0 {
				costs[mod(l1-l2, period)] += w
			}
		}
	}
	return costs
}

// firstMin returns the first offset of least cost and that cost.
func firstMin(costs []int64) (offset int, cost int64) {
	for i, c := range costs {
		if c < costs[offset] {
			offset = i
		}
	}
	return offset, costs[offset]
}

// bestAlignmentAssoc is the Section 6 variant of the offset search for
// k-way set-associative caches with k=2. Like bestAlignment it is the
// naive reference oracle, visiting all C² set pairs with all-pairs
// lookups; assocEngine in align.go computes the same costs from the
// non-zero entries of the pair database. The cost of an alignment charges
// D(p,{r,s}) whenever p, r and s fall into the same set with the pair {r,s}
// containing at least one block from the node opposite p — pairs entirely
// within p's own node are intra-node conflicts that the alignment cannot
// change (Section 4.2's "calculated only for procedure-piece conflicts
// between nodes").
//
// period here is the number of sets, and offsets are in units of sets (for
// power-of-two caches a shift by one line shifts the set index by one, so
// line offsets and set offsets coincide modulo the set count).
func bestAlignmentAssoc(n1, n2 *node, db *trg.PairDB, chunker *program.Chunker, prog *program.Program, lineBytes, period int) (offset int, cost int64) {
	return firstMin(alignCostsAssoc(n1, n2, db, chunker, prog, lineBytes, period))
}

// alignCostsAssoc is bestAlignmentAssoc's cost of every offset.
func alignCostsAssoc(n1, n2 *node, db *trg.PairDB, chunker *program.Chunker, prog *program.Program, lineBytes, period int) []int64 {
	c1 := occupancy(n1, chunker, prog, lineBytes, period)
	c2 := occupancy(n2, chunker, prog, lineBytes, period)

	costs := make([]int64, period)
	for i := 0; i < period; i++ {
		var total int64
		for j := 0; j < period; j++ {
			a := c1[mod(j+i, period)]
			b := c2[j]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			total += assocSetCost(a, b, db)
			total += assocSetCost(b, a, db)
		}
		costs[i] = total
	}
	return costs
}

// assocSetCost sums, for every block p in own, the D(p,{r,s}) counts over
// pairs {r,s} drawn from own∪other with at least one member in other.
func assocSetCost(own, other []program.ChunkID, db *trg.PairDB) int64 {
	var total int64
	for _, p := range own {
		// Pairs with both members in other.
		for i := 0; i < len(other); i++ {
			for j := i + 1; j < len(other); j++ {
				total += db.Count(trg.BlockID(p), trg.BlockID(other[i]), trg.BlockID(other[j]))
			}
		}
		// Mixed pairs: one member from own (not p itself), one from other.
		for _, r := range own {
			if r == p {
				continue
			}
			for _, s := range other {
				total += db.Count(trg.BlockID(p), trg.BlockID(r), trg.BlockID(s))
			}
		}
	}
	return total
}

// lineOccupancy maps each cache line (or set, for the associative variant)
// to the chunk IDs resident there under the node's current alignment.
// It is the CACHE array of the Figure 4 pseudo-code.
type lineOccupancy [][]program.ChunkID

// occupancy computes the line→chunks map for a node. For each procedure at
// offset o, line o+i holds the chunk covering byte i*lineBytes of the
// procedure. period is the number of cache lines for direct-mapped
// placement and the number of sets for the set-associative variant.
func occupancy(n *node, chunker *program.Chunker, prog *program.Program, lineBytes, period int) lineOccupancy {
	occ := make(lineOccupancy, period)
	for _, pp := range n.procs {
		lines := prog.SizeLines(pp.Proc, lineBytes)
		for i := 0; i < lines; i++ {
			idx := mod(pp.Line+i, period)
			chunk := chunker.ChunkAtOffset(pp.Proc, i*lineBytes)
			occ[idx] = append(occ[idx], chunk)
		}
	}
	return occ
}
