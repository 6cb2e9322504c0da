package core

import (
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/program"
	"repro/internal/trg"
)

// This file holds the alignment engines behind the GBSC merge loop. The
// naive scorers the tests keep as reference oracles (oracle_test.go)
// rebuild both nodes' line occupancy from the chunker and visit all C²
// line (or set) pairs with lookups on every merge. The engines here keep
// each working node's chunk→line runs incrementally up to date across
// shift/absorb and score all C offsets of a merge at once with the offset
// search the placement algorithms share (place.Offsets). The direct-mapped
// engine charges one term per TRG_place cross-edge between the two nodes,
// and the set-associative engine a few terms per non-zero pair-database
// entry D(p,{r,s}) whose blocks lie in both nodes, so a search costs
// O(terms + C). Differential tests (differential_test.go) prove the
// engines byte-identical to the oracles.

// alignEngine is the per-run alignment scorer driven by assign: addNode
// seeds the incremental occupancy state for one popular procedure, best
// Offset runs the Figure 4 search for merging node v into node u, and
// merged applies the chosen shift to the engine's state after the working
// graph merge.
type alignEngine interface {
	addNode(id graph.NodeID, p program.ProcID)
	bestOffset(u, v graph.NodeID) int
	merged(u, v graph.NodeID, off int)
	crossEdgesScanned() int64
}

// occState is the incremental chunk→line occupancy shared by both engines.
// Working-node IDs are popular ProcIDs, so per-node state lives in dense
// slices indexed by NodeID; each chunk belongs to exactly one procedure and
// therefore to at most one working node at a time.
type occState struct {
	period    int
	lineBytes int
	prog      *program.Program
	chunker   *program.Chunker
	// owner maps each chunk to the working node currently holding it, or
	// -1. A chunk occupies the cache lines of its procedure that start in
	// it: a run of lines[c] consecutive lines from start[c] (node-relative,
	// canonicalized to [0, period)), taken modulo the period, so a run
	// longer than the period holds some lines more than once, as the
	// oracle's occupancy() entries do.
	owner        []graph.NodeID
	start, lines []int
	// nodeChunks lists each working node's distinct chunks in absorption
	// order.
	nodeChunks [][]program.ChunkID
	offsets    *place.Offsets
}

func newOccState(prog *program.Program, chunker *program.Chunker, lineBytes, period int) occState {
	nc := chunker.NumChunks()
	owner := make([]graph.NodeID, nc)
	for i := range owner {
		owner[i] = -1
	}
	return occState{
		period:     period,
		lineBytes:  lineBytes,
		prog:       prog,
		chunker:    chunker,
		owner:      owner,
		start:      make([]int, nc),
		lines:      make([]int, nc),
		nodeChunks: make([][]program.ChunkID, prog.NumProcs()),
		offsets:    place.NewOffsets(period),
	}
}

// addNode seeds the state for a fresh single-procedure node at offset 0:
// line i of procedure p (mod period, for procedures larger than the cache)
// holds the chunk covering byte i*lineBytes, exactly as occupancy() derives.
func (s *occState) addNode(id graph.NodeID, p program.ProcID) {
	n := s.prog.SizeLines(p, s.lineBytes)
	var chunks []program.ChunkID
	last := program.ChunkID(-1)
	for i := 0; i < n; i++ {
		c := s.chunker.ChunkAtOffset(p, i*s.lineBytes)
		if c != last {
			chunks = append(chunks, c)
			s.owner[c] = id
			s.start[c] = mod(i, s.period)
			last = c
		}
		s.lines[c]++
	}
	s.nodeChunks[id] = chunks
}

// merged records that node v was shifted by off lines and absorbed into u.
func (s *occState) merged(u, v graph.NodeID, off int) {
	cv := s.nodeChunks[v]
	for _, c := range cv {
		s.owner[c] = u
		s.start[c] = mod(s.start[c]+off, s.period)
	}
	s.nodeChunks[u] = append(s.nodeChunks[u], cv...)
	s.nodeChunks[v] = nil
}

// directEngine scores direct-mapped alignments (the Figure 4 conflict
// metric) edge-first: every TRG_place cross-edge (c1 ∈ u, c2 ∈ v, w)
// contributes w to cost[(l1-l2) mod C] for each line pair the two chunks
// occupy, which is one offset-search term. Iterating the smaller node's
// adjacency bounds each search by the lighter side's cross-degree.
type directEngine struct {
	occState
	placeG *graph.Graph
	cross  int64
}

func newDirectEngine(prog *program.Program, placeG *graph.Graph, chunker *program.Chunker, lineBytes, period int) *directEngine {
	return &directEngine{occState: newOccState(prog, chunker, lineBytes, period), placeG: placeG}
}

func (e *directEngine) crossEdgesScanned() int64 { return e.cross }

// bestOffset returns the first offset minimizing the conflict metric for
// shifting node v against node u, identical to the oracle's bestAlignment.
func (e *directEngine) bestOffset(u, v graph.NodeID) int {
	e.addTerms(u, v)
	return e.offsets.Best()
}

// addTerms charges the search for shifting node v against node u.
func (e *directEngine) addTerms(u, v graph.NodeID) {
	// Scan from whichever node has fewer chunks. Either way u's lines stay
	// fixed and v's slide, because the offset shifts v; the int64 sums are
	// exact, so the costs do not depend on the scan order.
	cu, cv := e.nodeChunks[u], e.nodeChunks[v]
	if len(cu) <= len(cv) {
		e.addCrossEdges(cu, v, false)
	} else {
		e.addCrossEdges(cv, u, true)
	}
}

// addCrossEdges walks TRG_place's neighbour list of every chunk in from
// and charges each edge whose far end is owned by other as one term of its
// weight. fromIsV says whether from is the sliding node v.
func (e *directEngine) addCrossEdges(from []program.ChunkID, other graph.NodeID, fromIsV bool) {
	for _, c := range from {
		e.placeG.Neighbors(graph.NodeID(c), func(far graph.NodeID, w int64) {
			if e.owner[far] != other {
				return
			}
			e.cross++
			fixed, slide := c, program.ChunkID(far)
			if fromIsV {
				fixed, slide = slide, fixed
			}
			e.offsets.Add(e.start[fixed], e.lines[fixed], e.start[slide], e.lines[slide], w)
		})
	}
}

// assocEngine is the Section 6 set-associative scorer. An offset's cost
// charges D(p,{r,s}) for every set holding p, r and s with at least one of
// them in each node (see bestAlignmentAssoc). Two of the three blocks
// then share a node, and the charge is the overlap of the sets those two
// share with the third block's sets in the other node: a few offset-search
// terms per non-zero entry. Walking the entries of every chunk of both
// nodes charges each triple once, from p's side.
type assocEngine struct {
	occState
	pairs [][]trg.PairEntry // D grouped by p
}

func newAssocEngine(prog *program.Program, db *trg.PairDB, chunker *program.Chunker, lineBytes, period int) (*assocEngine, error) {
	pairs, err := db.Rows(chunker.NumChunks())
	if err != nil {
		return nil, err
	}
	return &assocEngine{occState: newOccState(prog, chunker, lineBytes, period), pairs: pairs}, nil
}

func (e *assocEngine) crossEdgesScanned() int64 { return 0 }

// bestOffset returns the first offset minimizing the pair-database cost of
// shifting node v against node u, identical to the oracle's
// bestAlignmentAssoc.
func (e *assocEngine) bestOffset(u, v graph.NodeID) int {
	e.addTerms(u, v)
	return e.offsets.Best()
}

// addTerms charges the search for shifting node v against node u.
func (e *assocEngine) addTerms(u, v graph.NodeID) {
	e.addTriples(u, u, v)
	e.addTriples(v, u, v)
}

// addTriples charges every non-zero D(p,{r,s}) with p in node from whose r
// and s lie in u or v, not both in from. p, r and s are distinct blocks.
func (e *assocEngine) addTriples(from, u, v graph.NodeID) {
	for _, p := range e.nodeChunks[from] {
		for _, d := range e.pairs[p] {
			r, s := program.ChunkID(d.R), program.ChunkID(d.S)
			or, os := e.owner[r], e.owner[s]
			if or != u && or != v || os != u && os != v || or == from && os == from {
				continue
			}
			// x and y share a node; lone is alone in the other one.
			x, y, lone := r, s, p
			switch from {
			case or:
				x, y, lone = p, r, s
			case os:
				x, y, lone = p, s, r
			}
			e.addShared(x, y, lone, e.owner[x] == u, d.N)
		}
	}
}

// addShared charges weight n for every line that chunks x and y share,
// counted with the product of the two multiplicities, against the lines of
// chunk lone. The shared lines are the fixed runs when x and y lie in u.
func (e *assocEngine) addShared(x, y, lone program.ChunkID, pairFixed bool, n int64) {
	P := e.period
	add := func(start, lines int, mult int64) {
		if pairFixed {
			e.offsets.Add(start, lines, e.start[lone], e.lines[lone], n*mult)
		} else {
			e.offsets.Add(e.start[lone], e.lines[lone], start, lines, n*mult)
		}
	}
	// A run of k·P+r lines covers every set k times plus r sets from its
	// start.
	a, b := e.start[x], e.start[y]
	ka, ra := e.lines[x]/P, e.lines[x]%P
	kb, rb := e.lines[y]/P, e.lines[y]%P
	if ka > 0 && kb > 0 {
		add(0, P, int64(ka*kb))
	}
	if ka > 0 && rb > 0 {
		add(b, rb, int64(ka))
	}
	if kb > 0 && ra > 0 {
		add(a, ra, int64(kb))
	}
	if ra > 0 && rb > 0 {
		// Two arcs of the ring meet in up to two arcs: from y's start up to
		// x's end, and from x's start up to y's wrapped end.
		d := mod(b-a, P)
		if d < ra {
			add(b, min(d+rb, ra)-d, 1)
		}
		if w := d + rb - P; w > 0 {
			add(a, min(w, ra), 1)
		}
	}
}
