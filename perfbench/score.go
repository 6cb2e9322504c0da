package main

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/sample"
	"repro/internal/trace"
)

// scorePerturbed is how many GBSC layouts from perturbed profiles each
// program's score panel holds besides its unperturbed PH, HKC and GBSC
// layouts.
const scorePerturbed = 5

// lruConfig is the Section 6 geometry: the paper's cache, 2-way LRU.
var lruConfig = cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 2}

// candidates is one program's candidate layouts, placed during set-up.
type candidates struct {
	pr      *prepared
	test    *trace.Trace
	ct      *cache.CompiledTrace
	layouts []*program.Layout
	classes []class
	labels  []string
}

// scoreWorkload scores fixed candidate panels the three ways cmd/cachesim
// offers; its pass is replay only.
type scoreWorkload struct {
	panels []*candidates
}

func newScore(seed int64) (workload, error) {
	return newScoreOn(paperSuite, seed)
}

func newScoreOn(sc suiteConfig, seed int64) (*scoreWorkload, error) {
	cfg := cache.PaperConfig
	pairs, err := sc.pairs(seed)
	if err != nil {
		return nil, err
	}
	train, test := suiteTraces(pairs)
	setup := newPass(nil, nil)
	w := &scoreWorkload{}
	for i, pair := range pairs {
		pr, err := prepare(setup, pair, train[i], cfg)
		if err != nil {
			return nil, err
		}
		sp := &candidates{pr: pr, test: test[i], ct: cache.CompileTrace(pr.prog, test[i])}
		add := func(alg string, run int) error {
			l, err := placeAlg(setup, alg, pr, cfg, perturbRNG(seed, run))
			if err != nil {
				return err
			}
			sp.layouts = append(sp.layouts, l)
			sp.classes = append(sp.classes, algClass(alg))
			sp.labels = append(sp.labels, fmt.Sprintf("%s/%d", alg, run))
			return nil
		}
		for _, alg := range figure5Algs {
			if err := add(alg, -1); err != nil {
				return nil, err
			}
		}
		for run := 0; run < scorePerturbed; run++ {
			if err := add("GBSC", run); err != nil {
				return nil, err
			}
		}
		w.panels = append(w.panels, sp)
	}
	return w, nil
}

// run checks and scores every panel; one (layout, mode) pair is one
// operation.
func (w *scoreWorkload) run(p *pass) {
	dm := cache.MustNewBatchSim(cache.PaperConfig)
	lru := cache.MustNewBatchSim(lruConfig)
	for _, sp := range w.panels {
		// Each layout is checked for its class, which includes the
		// universal checks cmd/cachesim applies; a layout that fails is
		// not scored and its operations fail.
		var good []int // indices of the layouts that passed
		var ops [][3]int
		for i, l := range sp.layouts {
			err := checkLayout(p, sp.classes[i], sp.pr.name+"/"+sp.labels[i], sp.pr.prog, l, sp.pr.pop, cache.PaperConfig)
			var o [3]int
			for m := range o {
				o[m] = p.do(func() error { return err })
			}
			if err == nil {
				good = append(good, i)
				ops = append(ops, o)
			}
		}
		if len(good) == 0 {
			continue
		}
		layouts := make([]*program.Layout, len(good))
		for k, i := range good {
			layouts[k] = sp.layouts[i]
		}
		exact, dmErr := scoreBatch(p, "cache.batch_dm", dm, sp.ct, layouts)
		lruStats, lruErr := scoreBatch(p, "cache.batch_lru", lru, sp.ct, layouts)
		ests, smpErr := sampleBatch(p, dm, sp, layouts)
		if err := errors.Join(dmErr, lruErr, smpErr); err != nil {
			for _, o := range ops {
				for _, op := range o {
					p.fail(op, err)
				}
			}
			continue
		}
		for k, i := range good {
			label := sp.pr.name + "/" + sp.labels[i]
			if sp.classes[i] == aligned {
				gbscQuality(p, sp.pr.prog, layouts[k], exact[k])
			}
			p.sampleErrPP += 100 * math.Abs(ests[k].MissRate-exact[k].MissRate())
			p.sampleN++
			p.fail(ops[k][0], errors.Join(
				p.output(label+"/refs", float64(exact[k].Refs)),
				p.output(label+"/dm", float64(exact[k].Misses))))
			p.fail(ops[k][1], p.output(label+"/lru", float64(lruStats[k].Misses)))
			p.fail(ops[k][2], p.output(label+"/sampled", ests[k].MissRate))
		}
	}
}

// sampleBatch estimates the layouts' direct-mapped miss rates as
// cmd/cachesim -sample does: a window plan built from the trace, then one
// batched walk per window.
func sampleBatch(p *pass, bs *cache.BatchSim, sp *candidates, layouts []*program.Layout) ([]sample.Estimate, error) {
	s := p.begin("sample.plan")
	plan, err := sample.NewPlan(sp.pr.prog, sp.test, bs.Config().LineBytes, sample.Options{})
	var ev *sample.Evaluator
	if err == nil {
		ev = sample.NewEvaluator(sp.ct, plan)
	}
	p.end(s)
	if err != nil {
		return nil, err
	}
	p.count("sample.events_replayed", plan.EventsReplayed())
	p.count("sample.trace_events", int64(plan.TotalEvents))
	before := bs.Batch().LaneEvents
	s = p.begin("sample.estimate")
	ests, err := ev.MissRateBatch(bs, layouts)
	p.end(s)
	p.count("cache.lane_events", bs.Batch().LaneEvents-before)
	return ests, err
}
