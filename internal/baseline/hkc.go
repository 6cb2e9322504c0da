package baseline

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
)

// HKC implements the cache-line-coloring placement of Hashemi, Kaeli and
// Calder as characterized in Section 5 of the paper: it extends PH with
// knowledge of procedure sizes and the cache configuration, records the set
// of cache lines (colors) occupied by each placed procedure, and tries to
// prevent overlap between a procedure and its immediate neighbors in the
// call graph. Whole groups of already-placed procedures may shift when
// groups are combined, provided the shift does not create conflicts with
// prior decisions (we realize this as a minimum-conflict padding search).
//
// g must be the weighted call graph over the popular procedures (see
// wcg.BuildFiltered); unpopular procedures fill gaps and are appended, as in
// GBSC, so that the three algorithms differ only in their placement logic.
func HKC(prog *program.Program, g *graph.Graph, pop *popular.Set, cfg cache.Config) (*program.Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pop == nil {
		pop = popular.All(prog)
	}
	period := cfg.NumLines()
	n := prog.NumProcs()

	// Each placed procedure has an absolute first color line[p] and belongs
	// to the compound comp[p], an index into members (-1 while unplaced).
	// A compound lists its procedures in placement order; an absorbed
	// compound's list is nil.
	size := make([]int, n)
	line := make([]int, n)
	comp := make([]int, n)
	for p := range size {
		size[p] = prog.SizeLines(program.ProcID(p), cfg.LineBytes)
		comp[p] = -1
	}
	var members [][]program.ProcID

	// A slide scores every pad at once: each (mover, placed procedure) pair
	// is one offset-search term between their colors, a procedure larger
	// than the cache covering every color once. The primary term is the
	// weighted overlap with the mover's placed WCG neighbors ("prevent
	// overlap between a procedure and any of its immediate neighbors in the
	// call graph"); the secondary term is the raw overlap with everything
	// already placed in the target compound — HKC packs a compound's
	// procedures into disjoint colors while empty colors remain, which is
	// what keeps non-adjacent siblings of a hot caller off each other. Both
	// are non-negative, so the first cheapest pad is the first pad of cost
	// 0 where one exists.
	offsets := place.NewOffsets(period)
	// chargeSlide adds the terms of mover q, whose colors start at line at
	// before the pad, against the procedures of compound in and its
	// neighbors in compound nbrIn, or in any compound when nbrIn is -1.
	chargeSlide := func(q program.ProcID, at, in, nbrIn int) {
		qLen := min(size[q], period)
		g.Neighbors(graph.NodeID(q), func(v graph.NodeID, w int64) {
			if c := comp[v]; c >= 0 && (nbrIn < 0 || c == nbrIn) {
				offsets.Add(line[v], min(size[v], period), at, qLen, w<<20)
			}
		})
		for _, f := range members[in] {
			offsets.Add(line[f], min(size[f], period), at, qLen, 1)
		}
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
		cp, cq := comp[p], comp[q]
		switch {
		case cp < 0 && cq < 0:
			// Neither placed: a fresh compound with the pair adjacent.
			c := len(members)
			members = append(members, []program.ProcID{p, q})
			line[p], line[q] = 0, size[p]%period
			comp[p], comp[q] = c, c

		case cp < 0 || cq < 0:
			// One placed: place the other right after its edge partner,
			// sliding forward to the first minimum-conflict color — the
			// coloring step of HKC.
			newcomer, partner := q, p
			if cq >= 0 {
				newcomer, partner = p, q
			}
			c := comp[partner]
			base := line[partner] + size[partner]
			chargeSlide(newcomer, base, c, -1)
			line[newcomer] = (base + offsets.Best()) % period
			comp[newcomer] = c
			members[c] = append(members[c], newcomer)

		case cp != cq:
			// Both placed in different compounds: shift cq so the edge
			// pair lands adjacent, then slide to minimize conflicts
			// between WCG-adjacent procedures across the two compounds.
			// Shifting the whole group realizes HKC's "already mapped
			// procedures are allowed to move as long as the new location's
			// cache lines do not conflict with prior decisions".
			anchor := line[p] + size[p] - line[q] // q adjacent to p at pad 0
			for _, m := range members[cq] {
				chargeSlide(m, line[m]+anchor, cp, cp)
			}
			delta := anchor + offsets.Best()
			for _, m := range members[cq] {
				line[m] = mod(line[m]+delta, period)
				comp[m] = cp
			}
			members[cp] = append(members[cp], members[cq]...)
			members[cq] = nil

		default:
			// Both already in the same compound: the prior decision stands.
		}
	}

	// Emit compounds in creation order; popular procedures never touched by
	// an edge, plus all unpopular procedures, fill gaps and the tail.
	var ordered []place.Placed
	for _, ms := range members {
		for _, m := range ms {
			ordered = append(ordered, place.Placed{Proc: m, Line: line[m]})
		}
	}
	filler := append([]program.ProcID(nil), pop.Unpopular(prog)...)
	for _, p := range pop.IDs {
		if comp[p] < 0 {
			filler = append(filler, p)
		}
	}
	return place.Emit(prog, ordered, filler, cfg, period)
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
