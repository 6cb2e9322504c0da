// Package anneal implements a simulated-annealing procedure placement over
// cache-relative offsets. It is not part of the paper's comparison; it
// serves as a strong reference optimizer at scales where the exhaustive
// search of internal/optimal is infeasible, answering "how much headroom is
// left above GBSC?" The annealer optimizes the same TRG_place conflict
// metric GBSC's merge phase uses (Figure 6 showed that metric to be an
// excellent linear proxy for misses), so the two are directly comparable.
package anneal

import (
	"math"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trg"
)

// startTemp and endTemp bound the geometric cooling schedule, expressed as
// fractions of the initial cost.
const startTemp, endTemp = 0.1, 1e-4

// Options tunes the annealer.
type Options struct {
	// Steps is the number of proposed moves. Default 20000.
	Steps int
	// Seed drives the proposal sequence. Default 1.
	Seed int64
	// Init provides the starting offsets, one entry per popular procedure
	// in any order; nil starts from all-zero.
	Init []place.Placed
}

func (o *Options) setDefaults() {
	if o.Steps == 0 {
		o.Steps = 20000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Place anneals cache-relative offsets for the popular procedures against
// the TRG_place metric and returns the linearized layout. res must come
// from trg.Build over the same program and popular set.
func Place(prog *program.Program, res *trg.Result, pop *popular.Set, cfg cache.Config, opts Options) (*program.Layout, error) {
	opts.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pop == nil {
		pop = popular.All(prog)
	}
	period := cfg.NumLines()
	rng := rand.New(rand.NewSource(opts.Seed))

	items := make([]place.Placed, len(pop.IDs))
	for i, p := range pop.IDs {
		items[i] = place.Placed{Proc: p, Line: 0}
	}
	if opts.Init != nil {
		copy(items, opts.Init)
	}

	ev := newEvaluator(prog, res, cfg, items)
	cost := ev.totalCost(items)
	best := append([]place.Placed(nil), items...)
	bestCost := cost

	t0 := startTemp * math.Max(float64(cost), 1)
	t1 := endTemp * math.Max(float64(cost), 1)
	for step := 0; step < opts.Steps; step++ {
		frac := float64(step) / float64(opts.Steps)
		temp := t0 * math.Pow(t1/t0, frac)

		idx := rng.Intn(len(items))
		oldLine := items[idx].Line
		newLine := rng.Intn(period)
		if newLine == oldLine {
			continue
		}
		delta := ev.moveDelta(items, idx, newLine)
		if delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp) {
			items[idx].Line = newLine
			cost += delta
			if cost < bestCost {
				bestCost = cost
				copy(best, items)
			}
		}
	}
	return place.Linearize(prog, best, pop.Unpopular(prog), cfg, period)
}

// evaluator scores moves against the TRG_place conflict metric through the
// offset search the placement algorithms share (place.Offsets). Each chunk
// that holds a line start of an item's procedure belongs to that item and
// holds a run of lines relative to the procedure's start line. Moving an
// item charges its chunks' edges to other items' chunks as terms, with the
// mover sliding, and reads the costs of its old and new start lines. The
// sums are exact int64, so the neighbour visit order cannot change them.
type evaluator struct {
	placeG *graph.Graph
	// owner[c] is the item holding chunk c, or -1 for a chunk of no item
	// or one that holds no line start. start[c] and lines[c] are its run.
	owner        []int
	start, lines []int
	// chunks lists each item's chunks.
	chunks  [][]program.ChunkID
	offsets *place.Offsets
}

func newEvaluator(prog *program.Program, res *trg.Result, cfg cache.Config, items []place.Placed) *evaluator {
	nc := res.Chunker.NumChunks()
	ev := &evaluator{
		placeG:  res.Place,
		owner:   make([]int, nc),
		start:   make([]int, nc),
		lines:   make([]int, nc),
		chunks:  make([][]program.ChunkID, len(items)),
		offsets: place.NewOffsets(cfg.NumLines()),
	}
	for c := range ev.owner {
		ev.owner[c] = -1
	}
	for idx, it := range items {
		for i := 0; i < prog.SizeLines(it.Proc, cfg.LineBytes); i++ {
			c := res.Chunker.ChunkAtOffset(it.Proc, i*cfg.LineBytes)
			if ev.lines[c] == 0 {
				ev.owner[c], ev.start[c] = idx, i
				ev.chunks[idx] = append(ev.chunks[idx], c)
			}
			ev.lines[c]++
		}
	}
	return ev
}

// costs returns the conflict cost between item idx and every other item
// for each start line of idx. The slice is reused by the next call.
func (ev *evaluator) costs(items []place.Placed, idx int) []int64 {
	for _, c := range ev.chunks[idx] {
		ev.placeG.Neighbors(graph.NodeID(c), func(d graph.NodeID, w int64) {
			if j := ev.owner[d]; j >= 0 && j != idx {
				ev.offsets.Add(items[j].Line+ev.start[d], ev.lines[d], ev.start[c], ev.lines[c], w)
			}
		})
	}
	return ev.offsets.Costs()
}

func (ev *evaluator) moveDelta(items []place.Placed, idx, newLine int) int64 {
	costs := ev.costs(items, idx)
	return costs[newLine] - costs[items[idx].Line]
}

func (ev *evaluator) totalCost(items []place.Placed) int64 {
	var total int64
	for i, it := range items {
		total += ev.costs(items, i)[it.Line]
	}
	return total / 2
}
