package main

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/popular"
	"repro/internal/tracegen"
	"repro/internal/trg"
)

// placeWorkload is a linker user's profile → layout → score path, once per
// suite program: cmd/layout's GBSC chain on the binary training trace,
// then cmd/cachesim's exact replay of the binary testing trace.
type placeWorkload struct {
	pairs       []*tracegen.Pair
	train, test [][]byte // binary trace encodings
}

func newPlace(seed int64) (workload, error) {
	return newPlaceOn(paperSuite, seed)
}

func newPlaceOn(sc suiteConfig, seed int64) (*placeWorkload, error) {
	pairs, err := sc.pairs(seed)
	if err != nil {
		return nil, err
	}
	w := &placeWorkload{pairs: pairs}
	train, test := suiteTraces(pairs)
	for i := range w.pairs {
		tb, err := encode(train[i])
		if err != nil {
			return nil, err
		}
		sb, err := encode(test[i])
		if err != nil {
			return nil, err
		}
		w.train = append(w.train, tb)
		w.test = append(w.test, sb)
	}
	return w, nil
}

// run places and scores each program as one operation.
func (w *placeWorkload) run(p *pass) {
	cfg := cache.PaperConfig
	for i, pair := range w.pairs {
		prog, name := pair.Bench.Prog, pair.Bench.Name
		p.do(func() error {
			train, err := decode(p, prog, w.train[i])
			if err != nil {
				return err
			}
			sp := p.begin("popular.select")
			pop := popular.Select(prog, train, popular.Options{})
			p.end(sp)
			sp = p.begin("trg.build")
			res, err := trg.Build(prog, train, trg.Options{CacheBytes: cfg.SizeBytes, Popular: pop})
			p.end(sp)
			if err != nil {
				return err
			}
			p.count("trg.events", int64(train.Len()))
			p.count("trg.place_edges", int64(res.Place.NumEdges()))
			l, err := placeGBSC(p, prog, res, pop, cfg)
			if err != nil {
				return err
			}
			if err := checkLayout(p, aligned, name+"/GBSC", prog, l, pop, cfg); err != nil {
				return err
			}

			test, err := decode(p, prog, w.test[i])
			if err != nil {
				return err
			}
			sp = p.begin("cache.compile_trace")
			ct := cache.CompileTrace(prog, test)
			p.end(sp)
			sp = p.begin("cache.replay")
			sim := cache.MustNewSim(cfg)
			st := sim.RunCompiled(ct, l)
			p.end(sp)
			p.count("cache.replay_events", sim.Replay().Events)
			p.count("cache.fast_events", sim.Replay().FastEvents)
			gbscQuality(p, prog, l, st)
			return errors.Join(
				p.output(fmt.Sprintf("%s/refs", name), float64(st.Refs)),
				p.output(fmt.Sprintf("%s/misses", name), float64(st.Misses)))
		})
	}
}
