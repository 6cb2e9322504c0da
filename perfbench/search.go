package main

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/optimal"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
)

// searchProcs is the procedure count of every tiny program: the
// exhaustive bound of optimal.Search.
const searchProcs = optimal.MaxProcs

// tinyConfig is the search cache: eight 32-byte lines, direct-mapped.
var tinyConfig = cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}

type tinyProgram struct {
	prog *program.Program
	tr   *trace.Trace
}

// searchWorkload runs the exhaustive optimal search, and GBSC beside it,
// over loop-structured tiny programs.
type searchWorkload struct {
	programs []tinyProgram
}

// searchLarge is how many of each program's procedures are two lines long
// rather than one, by program index. The mix is fixed so that every pass
// searches the same amount of code whatever the seed: in the
// coin-flipped sizes of experiments.Optimality the line count, and with it
// a program's search cost and miss count, varies about twofold.
var searchLarge = []int{3, 2, 3, 4, 3, 2, 3, 4}

func newSearch(seed int64) (workload, error) {
	w := &searchWorkload{}
	for i, large := range searchLarge {
		t, err := tiny(seed+int64(i)*104729, large, i%4 == 0)
		if err != nil {
			return nil, err
		}
		w.programs = append(w.programs, t)
	}
	return w, nil
}

// tiny generates a program and trace the way experiments.Optimality does,
// with searchProcs procedures of which a seeded choice of large are two
// lines long: bursts of round-robin sweeps (a loop body's calls)
// interleaved with random walks, or sweeps only when pureLoop.
func tiny(seed int64, large int, pureLoop bool) (tinyProgram, error) {
	rng := rand.New(rand.NewSource(seed))
	procs := make([]program.Procedure, searchProcs)
	for i := range procs {
		procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: tinyConfig.LineBytes}
	}
	for _, i := range rng.Perm(searchProcs)[:large] {
		procs[i].Size *= 2
	}
	prog, err := program.New(procs)
	if err != nil {
		return tinyProgram{}, err
	}
	n := len(procs)
	tr := &trace.Trace{}
	for tr.Len() < 500 {
		if pureLoop || rng.Intn(2) == 0 {
			sweeps := rng.Intn(8) + 2
			for s := 0; s < sweeps; s++ {
				for p := 0; p < n; p++ {
					tr.Append(trace.Event{Proc: program.ProcID(p)})
				}
			}
		} else {
			walk := rng.Intn(20) + 5
			for i := 0; i < walk; i++ {
				tr.Append(trace.Event{Proc: program.ProcID(rng.Intn(n))})
			}
		}
	}
	return tinyProgram{prog: prog, tr: tr}, nil
}

// run searches each program as one operation. The winner must pass the
// GBSC-family layout checks and re-simulate to the reported optimum; the
// GBSC layout placed beside it gives the pass's miss and padding figures.
func (w *searchWorkload) run(p *pass) {
	cfg := tinyConfig
	for i, t := range w.programs {
		p.do(func() error {
			sp := p.begin("optimal.search")
			res, err := optimal.Search(t.prog, t.tr, cfg)
			p.end(sp)
			if err != nil {
				return err
			}
			p.count("optimal.candidates", res.Evaluated+res.Pruned)
			p.count("optimal.evaluated", res.Evaluated)
			p.count("optimal.pruned", res.Pruned)
			p.count("optimal.abandoned", res.Abandoned)
			p.count("optimal.lane_events", res.Batch.LaneEvents)
			p.count("optimal.lane_events_saved", res.Batch.LaneEventsSaved)
			p.count("cache.lane_events", res.Batch.LaneEvents)
			if err := checkLayout(p, aligned, fmt.Sprintf("search/%d/optimal", i), t.prog, res.Layout, nil, cfg); err != nil {
				return err
			}
			st, err := runTrace(p, cfg, res.Layout, t.tr)
			if err != nil {
				return err
			}
			if st.Misses != res.Misses {
				return fmt.Errorf("search/%d: optimum re-simulates to %d misses, search reported %d", i, st.Misses, res.Misses)
			}

			sp = p.begin("trg.build")
			tg, err := trg.Build(t.prog, t.tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: cfg.LineBytes})
			p.end(sp)
			if err != nil {
				return err
			}
			p.count("trg.events", int64(t.tr.Len()))
			p.count("trg.place_edges", int64(tg.Place.NumEdges()))
			gl, err := placeGBSC(p, t.prog, tg, nil, cfg)
			if err != nil {
				return err
			}
			if err := checkLayout(p, aligned, fmt.Sprintf("search/%d/gbsc", i), t.prog, gl, nil, cfg); err != nil {
				return err
			}
			gst, err := runTrace(p, cfg, gl, t.tr)
			if err != nil {
				return err
			}
			gbscQuality(p, t.prog, gl, gst)
			return errors.Join(
				p.output(fmt.Sprintf("%d/optimum", i), float64(res.Misses)),
				p.output(fmt.Sprintf("%d/gbsc", i), float64(gst.Misses)))
		})
	}
}

// runTrace is cache.RunTrace under the span cache.replay.
func runTrace(p *pass, cfg cache.Config, l *program.Layout, tr *trace.Trace) (cache.Stats, error) {
	sp := p.begin("cache.replay")
	defer p.end(sp)
	return cache.RunTrace(cfg, l, tr)
}
