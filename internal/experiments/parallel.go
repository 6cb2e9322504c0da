package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism resolves the Options.Parallel knob to a worker count:
// 0 means one worker per CPU, 1 restores the serial path, and any other
// positive value is used as given.
func (o *Options) parallelism() int {
	switch {
	case o.Parallel == 0:
		return runtime.NumCPU()
	case o.Parallel < 1:
		return 1
	default:
		return o.Parallel
	}
}

// runParallel executes job(state, i) for every i in [0,n) using at most p
// concurrent workers. Each worker calls newState once and hands the value
// to every job it executes, so expensive per-worker scratch (a cache
// simulator, an RNG) is allocated once per worker instead of once per job.
//
// Determinism contract: jobs must derive everything from their index i
// (seeds, inputs, output slots) and must write results only into their own
// index-addressed slot. runParallel guarantees nothing about which worker
// runs which job or in what order jobs finish; because results are keyed
// by index, the assembled output is identical for every p.
//
// Error handling is also scheduling-independent: indices are dispatched in
// ascending order and every dispatched job runs to completion, so every
// failing index below the first observed failure is always reached, and
// the error with the lowest job index is returned — the same error the
// serial loop would have surfaced first.
func runParallel[S any](p, n int, newState func() S, job func(state S, i int) error) error {
	if n <= 0 {
		return nil
	}
	if p > n {
		p = n
	}
	if p <= 1 {
		state := newState()
		for i := 0; i < n; i++ {
			if err := job(state, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup

		mu       sync.Mutex
		firstErr error
		errIdx   int
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			state := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if err := job(state, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
