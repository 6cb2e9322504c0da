package main

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/perturb"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/trg"
	"repro/internal/wcg"
)

// figure5Runs is how many perturbed profiles each (program, algorithm)
// panel places besides the unperturbed one. The paper uses 40; five keeps
// a pass to a few seconds, so a run measures several of them.
const figure5Runs = 5

// batchLanes is the lane width of the batched scoring, as in
// experiments.DefaultBatchLanes.
const batchLanes = 16

// The three algorithms of Figure 5, in the order of its panels.
var figure5Algs = []string{"PH", "HKC", "GBSC"}

// figure5Config sizes the Figure 5 grid: its suite and the perturbed runs
// per panel.
type figure5Config struct {
	suiteConfig
	runs int
}

// figure5Workload is the paper's Figure 5 grid: prepare each program,
// place PH, HKC and GBSC from the unperturbed and the perturbed profiles,
// and score every layout exactly on the paper's cache.
type figure5Workload struct {
	cfg         figure5Config
	seed        int64
	pairs       []*tracegen.Pair
	train, test []*trace.Trace
}

func newFigure5(seed int64) (workload, error) {
	return newFigure5Grid(figure5Config{paperSuite, figure5Runs}, seed)
}

func newFigure5Grid(cfg figure5Config, seed int64) (*figure5Workload, error) {
	pairs, err := cfg.pairs(seed)
	if err != nil {
		return nil, err
	}
	w := &figure5Workload{cfg: cfg, seed: seed, pairs: pairs}
	w.train, w.test = suiteTraces(pairs)
	return w, nil
}

// cell is one placed layout of a panel and the operation it belongs to.
type cell struct {
	run    int // -1 for the unperturbed profile
	op     int
	layout *program.Layout
}

// run executes the grid; one layout is one operation.
func (w *figure5Workload) run(p *pass) {
	cfg := cache.PaperConfig
	bs := cache.MustNewBatchSim(cfg)
	for i, pair := range w.pairs {
		sp := p.begin("cache.compile_trace")
		ct := cache.CompileTrace(pair.Bench.Prog, w.test[i])
		p.end(sp)
		pr, prepErr := prepare(p, pair, w.train[i], cfg)
		for _, alg := range figure5Algs {
			var panel []cell
			for run := -1; run < w.cfg.runs; run++ {
				c := cell{run: run}
				c.op = p.do(func() error {
					if prepErr != nil {
						return prepErr
					}
					var err error
					c.layout, err = placeAlg(p, alg, pr, cfg, perturbRNG(w.seed, run))
					return err
				})
				if !p.bad[c.op] {
					panel = append(panel, c)
				}
			}
			scorePanel(p, bs, ct, pr, alg, panel)
		}
	}
}

// scorePanel checks each layout of a (program, algorithm) panel for the
// algorithm's class and scores those that pass exactly, batchLanes at a
// time. A layout that fails its check fails its operation unscored.
func scorePanel(p *pass, bs *cache.BatchSim, ct *cache.CompiledTrace, pr *prepared, alg string, panel []cell) {
	var good []cell
	for _, c := range panel {
		p.op = c.op
		err := checkLayout(p, algClass(alg), fmt.Sprintf("%s/%s/%d", pr.name, alg, c.run), pr.prog, c.layout, pr.pop, bs.Config())
		p.op = 0
		p.fail(c.op, err)
		if err == nil {
			good = append(good, c)
		}
	}
	for lo := 0; lo < len(good); lo += batchLanes {
		chunk := good[lo:min(lo+batchLanes, len(good))]
		layouts := make([]*program.Layout, len(chunk))
		for k, c := range chunk {
			layouts[k] = c.layout
		}
		stats, err := scoreBatch(p, "cache.batch_dm", bs, ct, layouts)
		for k, c := range chunk {
			if err != nil {
				p.fail(c.op, err)
				continue
			}
			if alg == "GBSC" {
				gbscQuality(p, pr.prog, c.layout, stats[k])
			}
			key := fmt.Sprintf("%s/%s/%d", pr.name, alg, c.run)
			p.fail(c.op, errors.Join(
				p.output(key+"/refs", float64(stats[k].Refs)),
				p.output(key+"/misses", float64(stats[k].Misses))))
		}
	}
}

// prepared is one program's profile-derived inputs to placement.
type prepared struct {
	name            string
	prog            *program.Program
	pop             *popular.Set
	wcgFull, wcgPop *graph.Graph // PH's and HKC's inputs
	trg             *trg.Result
}

// prepare builds a program's popular set, both WCGs and its TRGs from the
// training trace, as experiments.prepare does, and checks the TRGs.
func prepare(p *pass, pair *tracegen.Pair, train *trace.Trace, cfg cache.Config) (*prepared, error) {
	pr := &prepared{name: pair.Bench.Name, prog: pair.Bench.Prog}
	sp := p.begin("popular.select")
	pr.pop = popular.Select(pr.prog, train, popular.Options{})
	p.end(sp)
	sp = p.begin("wcg.build")
	pr.wcgFull = wcg.Build(train)
	pr.wcgPop = wcg.BuildFiltered(train, pr.pop.Contains)
	p.end(sp)
	sp = p.begin("trg.build")
	res, bst, err := trg.BuildWithStats(pr.prog, train, trg.Options{CacheBytes: cfg.SizeBytes, Popular: pr.pop})
	p.end(sp)
	if err != nil {
		return nil, err
	}
	pr.trg = res
	p.count("trg.events", int64(train.Len()))
	p.count("trg.place_edges", int64(res.Place.NumEdges()))
	sp = p.begin("invariant.check_trg")
	vs := invariant.CheckTRG(pr.prog, res, bst, pr.pop)
	p.end(sp)
	return pr, invariant.Error(pair.Bench.Name+"/trg", vs)
}

// perturbRNG seeds run's profile perturbation as experiments.Figure5 does
// for Options.Seed = seed; run -1, the unperturbed profile, has none.
func perturbRNG(seed int64, run int) *rand.Rand {
	if run < 0 {
		return nil
	}
	return rand.New(rand.NewSource(seed + int64(run)*7919))
}

// algClass is the layout class each Figure 5 algorithm claims.
func algClass(alg string) class {
	switch alg {
	case "PH":
		return packed
	case "GBSC":
		return aligned
	}
	return general
}

// placeAlg places the program with one Figure 5 algorithm from the
// profile perturbed by rng (unperturbed when rng is nil), drawing the
// perturbations in the order experiments.Figure5 draws them.
func placeAlg(p *pass, alg string, pr *prepared, cfg cache.Config, rng *rand.Rand) (*program.Layout, error) {
	perturbed := func(g *graph.Graph) *graph.Graph {
		if rng == nil {
			return g
		}
		sp := p.begin("perturb.graph")
		defer p.end(sp)
		return perturb.Graph(g, perturb.DefaultScale, rng)
	}
	switch alg {
	case "PH":
		g := perturbed(pr.wcgFull)
		sp := p.begin("baseline.ph")
		defer p.end(sp)
		return baseline.PHLayout(pr.prog, g)
	case "HKC":
		g := perturbed(pr.wcgPop)
		sp := p.begin("baseline.hkc")
		defer p.end(sp)
		return baseline.HKC(pr.prog, g, pr.pop, cfg)
	case "GBSC":
		res := &trg.Result{
			Select:    perturbed(pr.trg.Select),
			Place:     perturbed(pr.trg.Place),
			Chunker:   pr.trg.Chunker,
			AvgQProcs: pr.trg.AvgQProcs,
		}
		return placeGBSC(p, pr.prog, res, pr.pop, cfg)
	}
	return nil, fmt.Errorf("unknown algorithm %q", alg)
}

// placeGBSC is core.PlaceCounted under the span core.place, counting its
// merges and heap pops.
func placeGBSC(p *pass, prog *program.Program, res *trg.Result, pop *popular.Set, cfg cache.Config) (*program.Layout, error) {
	var m core.Metrics
	sp := p.begin("core.place")
	l, err := core.PlaceCounted(prog, res, pop, cfg, &m)
	p.end(sp)
	p.count("core.merges", m.Merges)
	p.count("core.heap_pops", m.HeapPops)
	return l, err
}

// scoreBatch scores up to batchLanes layouts exactly in one walk of the
// compiled trace: each layout compiled under cache.compile_layout, the
// walk under the span name (cache.batch_dm or cache.batch_lru).
func scoreBatch(p *pass, name string, bs *cache.BatchSim, ct *cache.CompiledTrace, layouts []*program.Layout) ([]cache.Stats, error) {
	tables := make([]*cache.CompiledLayout, len(layouts))
	for k, l := range layouts {
		sp := p.begin("cache.compile_layout")
		cl, err := cache.CompileLayout(bs.Config(), ct, l)
		p.end(sp)
		if err != nil {
			return nil, err
		}
		tables[k] = cl
	}
	sp := p.begin(name)
	res, err := bs.Run(ct, tables, cache.BatchOptions{})
	p.end(sp)
	if err != nil {
		return nil, err
	}
	p.count("cache.lane_events", res.Batch.LaneEvents)
	p.count(name+".lane_events", res.Batch.LaneEvents)
	return res.Stats, nil
}
