// Package metrics evaluates conflict metrics over whole placements and
// provides the correlation statistics of the paper's Figure 6, which
// compares how well a TRG_place-based metric and a WCG-based metric predict
// actual cache misses.
package metrics

import (
	"math"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/program"
)

// TRGConflict computes the fine-grained conflict metric of a layout: for
// every pair of chunks mapped to the same cache line, the TRG_place edge
// weight between them, summed over all lines. This is the quantity
// merge_nodes minimizes pairwise and the Y-axis of Figure 6 (top).
//
// Each line a procedure covers holds the chunk of the procedure's first
// byte there, so each chunk holds a run of consecutive lines, and a run
// longer than the period holds some lines more than once. Every TRG_place
// edge is one term of the offset search the placement algorithms share
// (place.Offsets) between its two chunks' runs, read at offset 0. placeG's
// nodes are chunker's chunks.
func TRGConflict(layout *program.Layout, placeG *graph.Graph, chunker *program.Chunker, cfg cache.Config) int64 {
	prog := layout.Program()
	lb := cfg.LineBytes

	nc := chunker.NumChunks()
	start, lines := make([]int, nc), make([]int, nc)
	for p := 0; p < prog.NumProcs(); p++ {
		id := program.ProcID(p)
		addr := layout.Addr(id)
		n := program.CeilDiv(addr%lb+prog.Size(id), lb)
		for i := 0; i < n; i++ {
			c := chunker.ChunkAtOffset(id, max(i*lb-addr%lb, 0))
			if lines[c] == 0 {
				start[c] = addr/lb + i
			}
			lines[c]++
		}
	}

	offsets := place.NewOffsets(cfg.NumLines())
	for c := 0; c < nc; c++ {
		placeG.Neighbors(graph.NodeID(c), func(d graph.NodeID, w int64) {
			if int(d) > c {
				offsets.Add(start[c], lines[c], start[d], lines[d], w)
			}
		})
	}
	return offsets.Costs()[0]
}

// WCGConflict computes the coarse metric of Figure 6 (bottom): for every
// pair of procedures that overlap anywhere in the cache, the WCG edge
// weight between them. A procedure covers an arc of consecutive cache
// lines, at most the whole period, and two arcs overlap when either starts
// inside the other. wcgG's nodes are the layout's procedures.
func WCGConflict(layout *program.Layout, wcgG *graph.Graph, cfg cache.Config) int64 {
	prog := layout.Program()
	period := cfg.NumLines()
	lb := cfg.LineBytes

	n := prog.NumProcs()
	start, lines := make([]int, n), make([]int, n)
	for p := 0; p < n; p++ {
		addr := layout.Addr(program.ProcID(p))
		start[p] = addr / lb % period
		lines[p] = min(program.CeilDiv(addr%lb+prog.Size(program.ProcID(p)), lb), period)
	}
	inside := func(s, from, length int) bool { return (s-from+period)%period < length }

	var total int64
	for a := 0; a < n; a++ {
		wcgG.Neighbors(graph.NodeID(a), func(b graph.NodeID, w int64) {
			if int(b) > a && (inside(start[b], start[a], lines[a]) || inside(start[a], start[b], lines[b])) {
				total += w
			}
		})
	}
	return total
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples; NaN when undefined (fewer than two points or zero variance).
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN()
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}
