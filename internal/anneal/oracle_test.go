package anneal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trg"
)

// lineEvaluator is the annealer's scorer before the shared offset search:
// it keeps the chunks resident on every cache line and, per move, looks up
// the TRG_place weight between the mover's chunks and every other item's
// chunk on each of its lines. The differential tests hold evaluator to it
// exactly.
type lineEvaluator struct {
	prog   *program.Program
	res    *trg.Result
	cfg    cache.Config
	period int
	// lineChunks[l] holds resident chunks with their owning item index.
	lineChunks [][]chunkRef
}

type chunkRef struct {
	item  int
	chunk program.ChunkID
}

func newLineEvaluator(prog *program.Program, res *trg.Result, cfg cache.Config, period int, items []place.Placed) *lineEvaluator {
	ev := &lineEvaluator{prog: prog, res: res, cfg: cfg, period: period,
		lineChunks: make([][]chunkRef, period)}
	for i, it := range items {
		ev.insert(items, i, it.Line)
	}
	return ev
}

func (ev *lineEvaluator) linesOf(p program.ProcID) int {
	return ev.prog.SizeLines(p, ev.cfg.LineBytes)
}

func (ev *lineEvaluator) chunkAt(p program.ProcID, lineIdx int) program.ChunkID {
	return ev.res.Chunker.ChunkAtOffset(p, lineIdx*ev.cfg.LineBytes)
}

func (ev *lineEvaluator) insert(items []place.Placed, idx, line int) {
	p := items[idx].Proc
	for i := 0; i < ev.linesOf(p); i++ {
		l := (line + i) % ev.period
		ev.lineChunks[l] = append(ev.lineChunks[l], chunkRef{item: idx, chunk: ev.chunkAt(p, i)})
	}
}

func (ev *lineEvaluator) remove(idx int) {
	for l := range ev.lineChunks {
		out := ev.lineChunks[l][:0]
		for _, cr := range ev.lineChunks[l] {
			if cr.item != idx {
				out = append(out, cr)
			}
		}
		ev.lineChunks[l] = out
	}
}

// costAt sums the weights between procedure p's chunks (placed at line)
// and everything else resident, excluding item idx itself.
func (ev *lineEvaluator) costAt(items []place.Placed, idx, line int) int64 {
	p := items[idx].Proc
	var total int64
	for i := 0; i < ev.linesOf(p); i++ {
		l := (line + i) % ev.period
		mine := ev.chunkAt(p, i)
		for _, cr := range ev.lineChunks[l] {
			if cr.item == idx {
				continue
			}
			total += ev.res.Place.Weight(graph.NodeID(mine), graph.NodeID(cr.chunk))
		}
	}
	return total
}

func (ev *lineEvaluator) moveDelta(items []place.Placed, idx, newLine int) int64 {
	return ev.costAt(items, idx, newLine) - ev.costAt(items, idx, items[idx].Line)
}

func (ev *lineEvaluator) apply(items []place.Placed, idx, newLine int) {
	ev.remove(idx)
	ev.insert(items, idx, newLine)
}

func (ev *lineEvaluator) totalCost(items []place.Placed) int64 {
	var total int64
	for i := range items {
		total += ev.costAt(items, i, items[i].Line)
	}
	return total / 2
}

// checkedPlace is Place's annealing loop driven by evaluator and
// lineEvaluator side by side: it fails the test at the first total cost or
// proposal delta on which they differ and returns the layout of the
// trajectory, which Place must reproduce.
func checkedPlace(t *testing.T, prog *program.Program, res *trg.Result, pop *popular.Set, cfg cache.Config, opts Options) *program.Layout {
	t.Helper()
	opts.setDefaults()
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
	oracle := newLineEvaluator(prog, res, cfg, period, items)
	cost := oracle.totalCost(items)
	if got := ev.totalCost(items); got != cost {
		t.Fatalf("initial totalCost = %d, oracle %d", got, cost)
	}
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
		delta := oracle.moveDelta(items, idx, newLine)
		if got := ev.moveDelta(items, idx, newLine); got != delta {
			t.Fatalf("step %d: moveDelta(item %d, %d → %d) = %d, oracle %d", step, idx, oldLine, newLine, got, delta)
		}
		if delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp) {
			oracle.apply(items, idx, newLine)
			items[idx].Line = newLine
			cost += delta
			if cost < bestCost {
				bestCost = cost
				copy(best, items)
			}
		}
	}
	if got, want := ev.totalCost(items), oracle.totalCost(items); got != want || want != cost {
		t.Fatalf("final totalCost = %d, oracle %d, running sum %d", got, want, cost)
	}
	l, err := place.Linearize(prog, best, pop.Unpopular(prog), cfg, period)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
