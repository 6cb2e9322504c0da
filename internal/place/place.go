// Package place holds what the placement algorithms share: cache-relative
// placements of procedures (the tuples of Section 4.2), the production of
// a final linear layout from them (Section 4.3), including gap-filling
// with unpopular procedures, and the offset search (Offsets) that GBSC's
// merge_nodes, its Section 6 variant and HKC's coloring slide all run.
package place

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/program"
)

// Placed is one tuple of a placement node: a procedure and the cache line
// index its first byte should map to.
type Placed struct {
	Proc program.ProcID
	// Line is the cache-relative line offset of the procedure start,
	// canonicalized to [0, period).
	Line int
}

// OrderBySmallestGap produces the linear order of Section 4.3: starting from
// a procedure with cache-line offset 0 (or the smallest available offset),
// repeatedly choose the procedure whose offset yields the smallest positive
// gap after the end of the previously chosen procedure:
//
//	gap = qSL - pEL            if qSL > pEL
//	gap = qSL - (pEL - N)      otherwise
//
// where pEL is the line holding the last byte of p and N is the number of
// cache lines (period). A gap of 1 means q starts on the line immediately
// after p.
func OrderBySmallestGap(prog *program.Program, items []Placed, cfg cache.Config, period int) []Placed {
	if len(items) == 0 {
		return nil
	}
	remaining := make([]Placed, len(items))
	copy(remaining, items)
	// Deterministic start: smallest line offset, ties by procedure ID.
	sort.Slice(remaining, func(i, j int) bool {
		if remaining[i].Line != remaining[j].Line {
			return remaining[i].Line < remaining[j].Line
		}
		return remaining[i].Proc < remaining[j].Proc
	})

	ordered := make([]Placed, 0, len(remaining))
	cur := remaining[0]
	remaining = remaining[1:]
	ordered = append(ordered, cur)

	for len(remaining) > 0 {
		pEL := endLine(prog, cur, cfg, period)
		best := -1
		bestGap := period + 1
		for i, cand := range remaining {
			g := gap(cand.Line, pEL, period)
			if g < bestGap || (g == bestGap && best >= 0 && cand.Proc < remaining[best].Proc) {
				best, bestGap = i, g
			}
		}
		cur = remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		ordered = append(ordered, cur)
	}
	return ordered
}

// endLine returns the cache-relative line index of the last byte of p.
func endLine(prog *program.Program, p Placed, cfg cache.Config, period int) int {
	lines := prog.SizeLines(p.Proc, cfg.LineBytes)
	return mod(p.Line+lines-1, period)
}

// gap implements the Section 4.3 formula; the result is in [1, period].
func gap(qSL, pEL, period int) int {
	return mod(qSL-pEL-1, period) + 1
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// Emit assigns byte addresses to the ordered popular procedures so that each
// starts at its assigned cache-relative line (mod period), then fills the
// resulting inter-procedure gaps with unpopular procedures (largest-fit) and
// appends any remaining unpopular procedures at the end (Section 4.3).
func Emit(prog *program.Program, ordered []Placed, unpopular []program.ProcID, cfg cache.Config, period int) (*program.Layout, error) {
	layout := program.NewLayout(prog)
	lb := cfg.LineBytes

	// Unpopular procedures available for gap filling, largest first.
	avail := make([]program.ProcID, len(unpopular))
	copy(avail, unpopular)
	sort.Slice(avail, func(i, j int) bool {
		si, sj := prog.Size(avail[i]), prog.Size(avail[j])
		if si != sj {
			return si > sj
		}
		return avail[i] < avail[j]
	})
	used := make([]bool, len(avail))

	fillGap := func(start, end int) {
		// Greedy largest-fit packing of unpopular procedures into
		// [start, end); unpopular procedures need no alignment.
		for i := range avail {
			if used[i] {
				continue
			}
			sz := prog.Size(avail[i])
			if start+sz <= end {
				layout.SetAddr(avail[i], start)
				used[i] = true
				start += sz
			}
		}
	}

	cursor := 0
	for _, p := range ordered {
		// First line-aligned address at or after cursor whose line index is
		// congruent to p.Line (mod period).
		alignedCursor := program.CeilDiv(cursor, lb) * lb
		curLine := (alignedCursor / lb) % period
		pad := mod(p.Line-curLine, period)
		start := alignedCursor + pad*lb
		if start > cursor {
			fillGap(cursor, start)
		}
		if gotLine := (start / lb) % period; gotLine != p.Line {
			return nil, fmt.Errorf("place: procedure %q landed on line %d, want %d",
				prog.Name(p.Proc), gotLine, p.Line)
		}
		layout.SetAddr(p.Proc, start)
		cursor = start + prog.Size(p.Proc)
	}

	// Append leftover unpopular procedures back to back.
	for i := range avail {
		if !used[i] {
			layout.SetAddr(avail[i], cursor)
			cursor += prog.Size(avail[i])
		}
	}

	// Every procedure must have been assigned exactly once.
	assigned := make([]bool, prog.NumProcs())
	for _, p := range ordered {
		if assigned[p.Proc] {
			return nil, fmt.Errorf("place: procedure %q placed twice", prog.Name(p.Proc))
		}
		assigned[p.Proc] = true
	}
	for _, p := range unpopular {
		if assigned[p] {
			return nil, fmt.Errorf("place: procedure %q both popular and unpopular", prog.Name(p))
		}
		assigned[p] = true
	}
	for p, ok := range assigned {
		if !ok {
			return nil, fmt.Errorf("place: procedure %q not covered by placement", prog.Name(program.ProcID(p)))
		}
	}
	return layout, nil
}

// Linearize combines OrderBySmallestGap and Emit: the complete Section 4.3
// pipeline from cache-relative placements to a final layout.
func Linearize(prog *program.Program, items []Placed, unpopular []program.ProcID, cfg cache.Config, period int) (*program.Layout, error) {
	ordered := OrderBySmallestGap(prog, items, cfg, period)
	return Emit(prog, ordered, unpopular, cfg, period)
}
