package experiments

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/popular"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/trg"
	"repro/internal/wcg"
)

// Store holds the prepared inputs of one run at one scale: the suite's
// programs, each benchmark input's trace and its compilation, each
// training profile's popular set and WCGs, and one checked TRG per cache
// size. Every entry is built at most once, by the first call that needs
// it, recording its telemetry into that call's shard; concurrent callers
// of one key wait for the build and share its result or its error.
// Entries are read-only once built and live as long as the store.
//
// The store owns the programs: tracegen.Suite builds new ones on every
// call, and a compiled trace replays only layouts of the program it was
// compiled against, so every driver takes its program from the store.
type Store struct {
	scale    float64
	pairs    []*tracegen.Pair
	traces   memo[traceKey, *compiledTrace]
	profiles memo[traceKey, *profile]
	trgs     memo[trgKey, *trg.Result]
}

// NewStore returns an empty store for the suite at scale, the
// Options.Scale of the calls it serves.
func NewStore(scale float64) *Store {
	return &Store{scale: scale, pairs: tracegen.Suite(scale)}
}

// traceKey names a benchmark input: the benchmark and the input's name.
type traceKey struct{ bench, input string }

// trgKey names a TRG: its training input and the cache size it was built
// for.
type trgKey struct {
	train      traceKey
	cacheBytes int
}

// compiledTrace is one benchmark input's trace and its compilation for
// replay.
type compiledTrace struct {
	tr *trace.Trace
	ct *cache.CompiledTrace
}

// profile is what a training trace yields for every cache size: the
// popular set, the transition graph over all executed procedures (PH's
// input) and the one restricted to popular procedures (HKC's input).
type profile struct {
	pop             *popular.Set
	wcgFull, wcgPop *graph.Graph
}

// memo builds each key's value at most once. The first get of a key runs
// build; every other get of the key, concurrent or later, waits for that
// build and returns the same value and error. Its keys are written once
// and read many times, sync.Map's case.
type memo[K comparable, V any] struct{ m sync.Map }

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (m *memo[K, V]) get(k K, build func() (V, error)) (V, error) {
	a, _ := m.m.LoadOrStore(k, &memoEntry[V]{})
	e := a.(*memoEntry[V])
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}

// The builders below record every counter and histogram once per entry,
// a deterministic function of its key, so shard merges agree at any
// worker count. prepare/wall times each build; a build fetches the
// entries it reads before its timer starts.

// trace returns pair's input in, generated and compiled.
func (s *Store) trace(sh *telemetry.Shard, pair *tracegen.Pair, in tracegen.Input) *compiledTrace {
	// Generation and compilation cannot fail.
	c, _ := s.traces.get(traceKey{pair.Bench.Name, in.Name}, func() (*compiledTrace, error) {
		defer sh.Time("prepare/wall")()
		tr := tracegen.Generate(pair.Bench, in, sh)
		return &compiledTrace{tr: tr, ct: cache.CompileTrace(pair.Bench.Prog, tr)}, nil
	})
	return c
}

// profile returns the popular set and WCGs of pair's training trace.
func (s *Store) profile(sh *telemetry.Shard, pair *tracegen.Pair) *profile {
	train := s.trace(sh, pair, pair.Train).tr
	// Selection and the WCG builds cannot fail.
	p, _ := s.profiles.get(traceKey{pair.Bench.Name, pair.Train.Name}, func() (*profile, error) {
		defer sh.Time("prepare/wall")()
		pop := popular.Select(pair.Bench.Prog, train, popular.Options{})
		p := &profile{pop: pop, wcgFull: wcg.Build(train), wcgPop: wcg.BuildFiltered(train, pop.Contains)}
		sh.Add("popular/procs", int64(pop.Len()))
		sh.Add("wcg/full_edges", int64(p.wcgFull.NumEdges()))
		sh.Add("wcg/popular_edges", int64(p.wcgPop.NumEdges()))
		return p, nil
	})
	return p
}

// trg returns TRG_select and TRG_place of pair's training trace for a
// cache of cacheBytes, verified before any placement consumes them.
func (s *Store) trg(sh *telemetry.Shard, pair *tracegen.Pair, cacheBytes int) (*trg.Result, error) {
	train := s.trace(sh, pair, pair.Train).tr
	pop := s.profile(sh, pair).pop
	key := trgKey{traceKey{pair.Bench.Name, pair.Train.Name}, cacheBytes}
	return s.trgs.get(key, func() (*trg.Result, error) {
		defer sh.Time("prepare/wall")()
		prog := pair.Bench.Prog
		stop := sh.Time("trg/build_wall")
		res, bs, err := trg.BuildWithStats(prog, train, trg.Options{CacheBytes: cacheBytes, Popular: pop})
		stop()
		if err != nil {
			return nil, fmt.Errorf("experiments: building TRG for %s: %w", pair.Bench.Name, err)
		}
		if err := invariant.Error(pair.Bench.Name+"/trg", invariant.CheckTRG(prog, res, bs, pop)); err != nil {
			return nil, err
		}
		sh.Add("trg/events_observed", bs.Events)
		sh.Add("trg/select_nodes", int64(res.Select.NumNodes()))
		sh.Add("trg/select_edges", int64(res.Select.NumEdges()))
		sh.Add("trg/place_nodes", int64(res.Place.NumNodes()))
		sh.Add("trg/place_edges", int64(res.Place.NumEdges()))
		sh.AddHistogram("trg/q_procs", bs.QLenHist[:], bs.QLenSum, bs.QSteps)
		sh.Observe("trg/q_max_procs", int64(bs.MaxQLen))
		return res, nil
	})
}

// bench is one benchmark's prepared inputs as a driver reads them: the
// store's entries for one testing input and one cache size.
type bench struct {
	pair        *tracegen.Pair
	train, test *trace.Trace
	// ctTrain and ctTest are the traces compiled for replay; every driver
	// that replays a benchmark trace goes through them.
	ctTrain, ctTest *cache.CompiledTrace
	*profile
	// trgRes holds TRG_select and TRG_place built from the training trace.
	trgRes *trg.Result
}

// bench returns pair's inputs prepared for a cache of cacheBytes, with
// input test as the testing trace.
func (s *Store) bench(sh *telemetry.Shard, pair *tracegen.Pair, test tracegen.Input, cacheBytes int) (*bench, error) {
	res, err := s.trg(sh, pair, cacheBytes)
	if err != nil {
		return nil, err
	}
	train, tst := s.trace(sh, pair, pair.Train), s.trace(sh, pair, test)
	return &bench{pair: pair, train: train.tr, test: tst.tr, ctTrain: train.ct, ctTest: tst.ct,
		profile: s.profile(sh, pair), trgRes: res}, nil
}

// keep is the forSuite job of a driver that runs its own grid over the
// prepared suite: its result is the benchmark itself.
func keep(_ *telemetry.Shard, b *bench, out **bench) error {
	*out = b
	return nil
}

// forSuite runs job on each benchmark of the filtered suite, prepared for
// cfg's cache size, across the options' workers, each with its own
// telemetry shard. The job fills its benchmark's result; the results come
// back in suite order. Jobs follow runParallel's determinism contract.
func forSuite[R any](o *Options, cfg cache.Config, job func(sh *telemetry.Shard, b *bench, out *R) error) ([]R, error) {
	pairs, err := o.suite()
	if err != nil {
		return nil, err
	}
	out := make([]R, len(pairs))
	err = runParallel(o.parallelism(), len(pairs),
		func() *telemetry.Shard { return o.Telemetry.Shard() },
		func(sh *telemetry.Shard, i int) error {
			b, err := o.Store.bench(sh, pairs[i], pairs[i].Test, cfg.SizeBytes)
			if err != nil {
				return err
			}
			return job(sh, b, &out[i])
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
