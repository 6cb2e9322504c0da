package baseline

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
)

// hkcOracle is HKC as first written, kept as the reference the offset
// search in hkc.go must reproduce byte for byte: it scores every pad of a
// slide separately, calling conflictCost for each pad and each moving
// procedure, and conflictCost reads the mover's neighbor list from the
// graph and the overlap of each pair with circOverlap. It stops a slide at
// the first zero-cost pad, which is the first cheapest pad because costs
// are non-negative.
func hkcOracle(prog *program.Program, g *graph.Graph, pop *popular.Set, cfg cache.Config) (*program.Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pop == nil {
		pop = popular.All(prog)
	}
	period := cfg.NumLines()
	lb := cfg.LineBytes

	// Compound nodes: groups of procedures with absolute cache-line colors.
	type compound struct {
		procs []place.Placed // ordered by placement time
	}
	var compounds []*compound
	compoundOf := make(map[program.ProcID]*compound)

	linesOf := func(p program.ProcID) int { return prog.SizeLines(p, lb) }

	// overlap counts cache lines shared by p placed at line ap and q at aq.
	overlap := func(p program.ProcID, ap int, q program.ProcID, aq int) int64 {
		return circOverlap(ap, linesOf(p), aq, linesOf(q), period)
	}

	// conflictCost scores placing proc q at line aq. The primary term is
	// the weighted overlap with q's placed WCG neighbors ("prevent overlap
	// between a procedure and any of its immediate neighbors in the call
	// graph"); the secondary term is the raw line overlap with everything
	// already placed in the target compound — HKC packs a compound's
	// procedures into disjoint colors while empty colors remain, which is
	// what keeps non-adjacent siblings of a hot caller off each other.
	conflictCost := func(q program.ProcID, aq int, inCompound *compound, skip *compound) int64 {
		var neighborCost int64
		g.Neighbors(graph.NodeID(q), func(v graph.NodeID, w int64) {
			n := program.ProcID(v)
			c, ok := compoundOf[n]
			if !ok || (skip != nil && c != skip) {
				return
			}
			for _, pp := range c.procs {
				if pp.Proc == n {
					neighborCost += w * overlap(q, aq, n, pp.Line)
				}
			}
		})
		var spaceCost int64
		if inCompound != nil {
			for _, pp := range inCompound.procs {
				spaceCost += overlap(q, aq, pp.Proc, pp.Line)
			}
		}
		return neighborCost*(1<<20) + spaceCost
	}

	// Process edges in decreasing weight order.
	edges := g.Edges()
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].W != edges[j].W {
			return edges[i].W > edges[j].W
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})

	for _, e := range edges {
		p, q := program.ProcID(e.U), program.ProcID(e.V)
		cp, pOK := compoundOf[p]
		cq, qOK := compoundOf[q]
		switch {
		case !pOK && !qOK:
			// Neither placed: a fresh compound with the pair adjacent.
			c := &compound{procs: []place.Placed{
				{Proc: p, Line: 0},
				{Proc: q, Line: linesOf(p) % period},
			}}
			compounds = append(compounds, c)
			compoundOf[p] = c
			compoundOf[q] = c

		case pOK != qOK:
			// One placed: place the other right after its edge partner,
			// sliding forward to the first minimum-conflict color — the
			// coloring step of HKC.
			placedC := cp
			newcomer, partner := q, p
			if qOK {
				placedC = cq
				newcomer, partner = p, q
			}
			base := 0
			for _, pp := range placedC.procs {
				if pp.Proc == partner {
					base = pp.Line + linesOf(partner)
					break
				}
			}
			bestPad, bestCost := 0, int64(-1)
			for pad := 0; pad < period; pad++ {
				cost := conflictCost(newcomer, (base+pad)%period, placedC, nil)
				if bestCost < 0 || cost < bestCost {
					bestPad, bestCost = pad, cost
					if cost == 0 {
						break // first zero-conflict color wins
					}
				}
			}
			placedC.procs = append(placedC.procs, place.Placed{
				Proc: newcomer, Line: (base + bestPad) % period,
			})
			compoundOf[newcomer] = placedC

		case cp != cq:
			// Both placed in different compounds: shift cq so the edge
			// pair lands adjacent, then slide to minimize conflicts
			// between WCG-adjacent procedures across the two compounds.
			// Shifting the whole group realizes HKC's "already mapped
			// procedures are allowed to move as long as the new location's
			// cache lines do not conflict with prior decisions".
			pLine, qLine := 0, 0
			for _, pp := range cp.procs {
				if pp.Proc == p {
					pLine = pp.Line
				}
			}
			for _, pp := range cq.procs {
				if pp.Proc == q {
					qLine = pp.Line
				}
			}
			anchor := pLine + linesOf(p) - qLine // q adjacent to p at pad 0
			bestPad, bestCost := 0, int64(-1)
			for pad := 0; pad < period; pad++ {
				var cost int64
				for _, pp := range cq.procs {
					cost += conflictCost(pp.Proc, mod(pp.Line+anchor+pad, period), cp, cp)
				}
				if bestCost < 0 || cost < bestCost {
					bestPad, bestCost = pad, cost
					if cost == 0 {
						break
					}
				}
			}
			delta := anchor + bestPad
			for i := range cq.procs {
				cq.procs[i].Line = mod(cq.procs[i].Line+delta, period)
				compoundOf[cq.procs[i].Proc] = cp
			}
			cp.procs = append(cp.procs, cq.procs...)
			for i, c := range compounds {
				if c == cq {
					compounds = append(compounds[:i], compounds[i+1:]...)
					break
				}
			}

		default:
			// Both already in the same compound: the prior decision stands.
		}
	}

	// Emit compounds in creation order; popular procedures never touched by
	// an edge, plus all unpopular procedures, fill gaps and the tail.
	var ordered []place.Placed
	for _, c := range compounds {
		ordered = append(ordered, c.procs...)
	}
	filler := append([]program.ProcID(nil), pop.Unpopular(prog)...)
	for _, p := range pop.IDs {
		if _, ok := compoundOf[p]; !ok {
			filler = append(filler, p)
		}
	}
	return place.Emit(prog, ordered, filler, cfg, period)
}

// circOverlap returns the number of positions shared by the circular
// intervals [a, a+la) and [b, b+lb) on a ring of the given period.
func circOverlap(a, la, b, lb, period int) int64 {
	if la > period {
		la = period
	}
	if lb > period {
		lb = period
	}
	d := mod(b-a, period)
	ov := 0
	// Part of B before the ring wraps, intersected with A = [0, la).
	end := d + lb
	if end > period {
		end = period
	}
	if d < la {
		hi := la
		if end < hi {
			hi = end
		}
		if hi > d {
			ov += hi - d
		}
	}
	// Wrapped part of B: [0, d+lb-period), always inside [0, la) up to la.
	if wrap := d + lb - period; wrap > 0 {
		hi := wrap
		if la < hi {
			hi = la
		}
		ov += hi
	}
	return int64(ov)
}
