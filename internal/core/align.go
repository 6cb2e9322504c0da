package core

import (
	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/trg"
)

// This file holds the fast alignment engines behind the GBSC merge loop.
// The naive scorers the tests keep as reference oracles (oracle_test.go)
// rebuild both nodes' line occupancy from the chunker and walk all C² line
// pairs with map lookups on every merge, costing O(C²·occ²) per alignment
// search. The engines here keep each working node's chunk→line assignment
// incrementally up to date across shift/absorb. The direct-mapped engine
// scores an alignment from the TRG_place cross-edges between the two nodes
// alone: each edge adds a trapezoid to the cost vector (cost[(l1-l2) mod
// C] += w over its chunks' line runs), summed on a second-difference buffer,
// so a search costs O(cross-degree + C). Differential tests
// (differential_test.go) prove the engines byte-identical to the oracles.

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
	// -1. chunkLines holds the cache lines (node-relative, canonicalized to
	// [0, period)) each chunk occupies — a multiset mirroring the oracle's
	// occupancy() entries, one line per cache line of the owning procedure.
	owner      []graph.NodeID
	chunkLines [][]int32
	// nodeChunks lists each working node's distinct chunks in absorption
	// order.
	nodeChunks [][]program.ChunkID
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
		chunkLines: make([][]int32, nc),
		nodeChunks: make([][]program.ChunkID, prog.NumProcs()),
	}
}

// addNode seeds the state for a fresh single-procedure node at offset 0:
// line i of procedure p (mod period, for procedures larger than the cache)
// holds the chunk covering byte i*lineBytes, exactly as occupancy() derives.
func (s *occState) addNode(id graph.NodeID, p program.ProcID) {
	lines := s.prog.SizeLines(p, s.lineBytes)
	var chunks []program.ChunkID
	last := program.ChunkID(-1)
	for i := 0; i < lines; i++ {
		c := s.chunker.ChunkAtOffset(p, i*s.lineBytes)
		if c != last {
			chunks = append(chunks, c)
			s.owner[c] = id
			last = c
		}
		s.chunkLines[c] = append(s.chunkLines[c], int32(mod(i, s.period)))
	}
	s.nodeChunks[id] = chunks
}

// merged records that node v was shifted by off lines and absorbed into u.
func (s *occState) merged(u, v graph.NodeID, off int) {
	cv := s.nodeChunks[v]
	for _, c := range cv {
		s.owner[c] = u
		ls := s.chunkLines[c]
		for j := range ls {
			ls[j] = int32(mod(int(ls[j])+off, s.period))
		}
	}
	s.nodeChunks[u] = append(s.nodeChunks[u], cv...)
	s.nodeChunks[v] = nil
}

// placeCSR is an immutable CSR adjacency snapshot of TRG_place over
// chunks. The place graph is never mutated during a merge loop, so slice
// walks replace map probes.
type placeCSR struct {
	nbrOff []int32
	nbrID  []program.ChunkID
	nbrW   []int64
}

func newPlaceCSR(placeG *graph.Graph, nc int) *placeCSR {
	es := placeG.Edges()
	c := &placeCSR{}
	deg := make([]int32, nc+1)
	for _, ed := range es {
		deg[ed.U+1]++
		deg[ed.V+1]++
	}
	for i := 0; i < nc; i++ {
		deg[i+1] += deg[i]
	}
	c.nbrOff = deg
	c.nbrID = make([]program.ChunkID, 2*len(es))
	c.nbrW = make([]int64, 2*len(es))
	fill := make([]int32, nc)
	for _, ed := range es {
		i := c.nbrOff[ed.U] + fill[ed.U]
		c.nbrID[i], c.nbrW[i] = program.ChunkID(ed.V), ed.W
		fill[ed.U]++
		j := c.nbrOff[ed.V] + fill[ed.V]
		c.nbrID[j], c.nbrW[j] = program.ChunkID(ed.U), ed.W
		fill[ed.V]++
	}
	return c
}

// directEngine scores direct-mapped alignments (the Figure 4 conflict
// metric) edge-first: every TRG_place cross-edge (c1 ∈ u, c2 ∈ v, w)
// contributes w to cost[(l1-l2) mod C] for each line pair the two chunks
// occupy. Iterating the smaller node's adjacency bounds each search by the
// lighter side's cross-degree.
type directEngine struct {
	occState
	csr   *placeCSR
	costs []int64
	cross int64
	// d2 is the second-difference scratch buffer of accumulateRuns.
	d2 []int64
}

func newDirectEngine(prog *program.Program, placeG *graph.Graph, chunker *program.Chunker, lineBytes, period int) *directEngine {
	return &directEngine{
		occState: newOccState(prog, chunker, lineBytes, period),
		csr:      newPlaceCSR(placeG, chunker.NumChunks()),
		costs:    make([]int64, period),
	}
}

func (e *directEngine) crossEdgesScanned() int64 { return e.cross }

// bestOffset returns the first offset minimizing the conflict metric for
// shifting node v against node u, identical to the oracle's bestAlignment.
func (e *directEngine) bestOffset(u, v graph.NodeID) int {
	costs := e.costs
	for i := range costs {
		costs[i] = 0
	}
	// Scan from whichever node has fewer chunks; the cost index is always
	// (u-side line − v-side line) mod period because the offset shifts v.
	// The accumulation order differs between the two directions but the
	// int64 sums are exact, so the cost vector is identical either way.
	cu, cv := e.nodeChunks[u], e.nodeChunks[v]
	if len(cu) <= len(cv) {
		e.accumulateRuns(costs, cu, v, false)
	} else {
		e.accumulateRuns(costs, cv, u, true)
	}
	return argmin(costs)
}

// argmin returns the first index minimizing costs, the tie rule both
// engines' bestOffset share with the oracle.
func argmin(costs []int64) int {
	best, bestCost := 0, costs[0]
	for i := 1; i < len(costs); i++ {
		if costs[i] < bestCost {
			best, bestCost = i, costs[i]
		}
	}
	return best
}

// accumulateRuns walks the place CSR's adjacency of every chunk in from,
// keeping the cross-edges whose far end is owned by other, and adds each
// edge's weight w to cost[(u-side line − v-side line) mod period] for every
// pair of lines its two chunks occupy. fromIsV says whether the near side
// is the shifting node v (so its lines are subtracted) or u.
//
// It does so in O(edges + period) instead of O(Σ p·q) line pairs by
// exploiting the chunk-line geometry: a chunk's lines are a consecutive run
// modulo the period (addNode seeds ls[j] = (ls[0]+j) mod period and merged
// only rotates the run), so one edge's contribution to the cost vector is
// the circular convolution of two interval indicators — a trapezoid. Each
// trapezoid is four impulses on a second-difference buffer; integrating
// the buffer twice at the end materializes all of them at once. The sums
// are exact int64, so the result equals the line-pair loop's.
func (e *directEngine) accumulateRuns(costs []int64, from []program.ChunkID, other graph.NodeID, fromIsV bool) {
	P, csr := e.period, e.csr
	if len(e.d2) < 2*P {
		e.d2 = make([]int64, 2*P)
	}
	d2 := e.d2[:2*P]
	clear(d2)
	touched := false
	for _, c := range from {
		lo, hi := csr.nbrOff[c], csr.nbrOff[c+1]
		for k := lo; k < hi; k++ {
			far := csr.nbrID[k]
			if e.owner[far] != other {
				continue
			}
			e.cross++
			w := csr.nbrW[k]
			nearLines, farLines := e.chunkLines[c], e.chunkLines[far]
			p, q := len(nearLines), len(farLines)
			if p == 0 || q == 0 {
				continue
			}
			if p+q > P {
				// Runs wrapping the whole period lose the trapezoid shape
				// after folding; score such (rare, huge-chunk) edges with
				// the exact nested loop instead.
				for _, ln := range nearLines {
					for _, lf := range farLines {
						if fromIsV {
							costs[mod(int(lf)-int(ln), P)] += w
						} else {
							costs[mod(int(ln)-int(lf), P)] += w
						}
					}
				}
				continue
			}
			// The cost index is (u-side line − v-side line) mod period; over
			// two runs the differences cover a length p+q-1 window whose
			// linear start is below. Impulses land in [0, 2P) because the
			// start is normalized to [0, P) and p+q ≤ P.
			var s int
			if fromIsV {
				s = int(farLines[0]) - int(nearLines[0]) - (p - 1)
			} else {
				s = int(nearLines[0]) - int(farLines[0]) - (q - 1)
			}
			s0 := mod(s, P)
			d2[s0] += w
			d2[s0+p] -= w
			d2[s0+q] -= w
			d2[s0+p+q] += w
			touched = true
		}
	}
	if !touched {
		return
	}
	// Double prefix sum turns the impulses into the summed trapezoids; the
	// four impulses of each edge telescope to zero past its window, so the
	// running values are exactly the per-index contributions. Fold the
	// second period back onto the first.
	var d1, t int64
	for i := 0; i < P; i++ {
		d1 += d2[i]
		t += d1
		costs[i] += t
	}
	for i := P; i < 2*P; i++ {
		d1 += d2[i]
		t += d1
		costs[i-P] += t
	}
}

// assocEngine is the Section 6 set-associative scorer with the same
// incremental occupancy and buffer reuse: the per-merge occupancy arrays
// are filled from the engine's chunk→line state (no chunker rebuild) and
// the cost and occupancy buffers are reused across merges. The C² set-pair
// triple charging of bestAlignmentAssoc is kept verbatim — the pair
// database semantics need every co-resident set pair.
type assocEngine struct {
	occState
	db         *trg.PairDB
	occ1, occ2 lineOccupancy
	costs      []int64
}

func newAssocEngine(prog *program.Program, db *trg.PairDB, chunker *program.Chunker, lineBytes, period int) *assocEngine {
	return &assocEngine{
		occState: newOccState(prog, chunker, lineBytes, period),
		db:       db,
		occ1:     make(lineOccupancy, period),
		occ2:     make(lineOccupancy, period),
		costs:    make([]int64, period),
	}
}

func (e *assocEngine) crossEdgesScanned() int64 { return 0 }

// fillOcc rebuilds a scratch occupancy array from the incremental state,
// truncating (capacity-preserving) before refilling.
func (e *assocEngine) fillOcc(occ lineOccupancy, id graph.NodeID) {
	for i := range occ {
		occ[i] = occ[i][:0]
	}
	for _, c := range e.nodeChunks[id] {
		for _, l := range e.chunkLines[c] {
			occ[l] = append(occ[l], c)
		}
	}
}

func (e *assocEngine) bestOffset(u, v graph.NodeID) int {
	e.fillOcc(e.occ1, u)
	e.fillOcc(e.occ2, v)
	costs := e.costs
	for i := 0; i < e.period; i++ {
		var total int64
		for j := 0; j < e.period; j++ {
			a := e.occ1[mod(j+i, e.period)]
			b := e.occ2[j]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			total += assocSetCost(a, b, e.db)
			total += assocSetCost(b, a, e.db)
		}
		costs[i] = total
	}
	return argmin(costs)
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
