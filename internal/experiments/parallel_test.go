package experiments

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// Figure 5 at parallelism 1 and N must render byte-identically: results are
// index-addressed, so scheduling cannot leak into the output. Run with
// -race to also exercise the worker pool under the race detector.
func TestFigure5ParallelMatchesSerial(t *testing.T) {
	serialOpts := smallOpts()
	serialOpts.Benchmarks = []string{"m88ksim"}
	serialOpts.Parallel = 1
	parOpts := serialOpts
	parOpts.Parallel = 8

	serial, err := Figure5(serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Figure5(parOpts)
	if err != nil {
		t.Fatal(err)
	}

	var sr, pr, sc, pc bytes.Buffer
	if err := serial.Render(&sr); err != nil {
		t.Fatal(err)
	}
	if err := par.Render(&pr); err != nil {
		t.Fatal(err)
	}
	if sr.String() != pr.String() {
		t.Errorf("rendered output differs between parallel 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", sr.String(), pr.String())
	}
	if err := serial.WriteCSV(&sc); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteCSV(&pc); err != nil {
		t.Fatal(err)
	}
	if sc.String() != pc.String() {
		t.Error("CSV output differs between parallel 1 and 8")
	}
}

// The cache-geometry sweep shards (benchmark, geometry) cells flat across
// workers; the rendered grid must not depend on the worker count.
func TestCacheSweepParallelMatchesSerial(t *testing.T) {
	serialOpts := smallOpts()
	serialOpts.Benchmarks = []string{"m88ksim"}
	serialOpts.Parallel = 1
	parOpts := serialOpts
	parOpts.Parallel = 8

	serial, err := CacheSweep(serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CacheSweep(parOpts)
	if err != nil {
		t.Fatal(err)
	}
	var sr, pr bytes.Buffer
	if err := serial.Render(&sr); err != nil {
		t.Fatal(err)
	}
	if err := par.Render(&pr); err != nil {
		t.Fatal(err)
	}
	if sr.String() != pr.String() {
		t.Errorf("sweep output differs between parallel 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", sr.String(), pr.String())
	}
}

// Figure 6 pre-draws its mutation stream serially and fans out only the
// evaluation, so its points must also be parallelism-independent.
func TestFigure6ParallelMatchesSerial(t *testing.T) {
	serialOpts := Options{Scale: 0.05, Seed: 1, Parallel: 1}
	parOpts := Options{Scale: 0.05, Seed: 1, Parallel: 8}
	serial, err := Figure6(serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Figure6(parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Points) != len(par.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(par.Points))
	}
	for i := range serial.Points {
		if serial.Points[i] != par.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, serial.Points[i], par.Points[i])
		}
	}
}

// A typo in the benchmark filter must be a loud error naming every unknown
// entry, not a silently smaller suite.
func TestUnknownBenchmarkIsError(t *testing.T) {
	opts := smallOpts()
	opts.Benchmarks = []string{"m88ksim", "ghostscrpt", "prl"}
	if _, err := Table1(opts); err == nil {
		t.Fatal("unknown benchmarks did not error")
	} else {
		for _, name := range []string{`"ghostscrpt"`, `"prl"`} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not name unknown benchmark %q", err, name)
			}
		}
		if strings.Contains(err.Error(), "m88ksim") {
			t.Errorf("error %q names a valid benchmark", err)
		}
	}
	// Every suite-driven experiment goes through the same resolution.
	if _, err := Figure5(opts); err == nil {
		t.Error("Figure5 accepted unknown benchmarks")
	}
	if _, err := CacheSweep(opts); err == nil {
		t.Error("CacheSweep accepted unknown benchmarks")
	}
}

// The pool must run every index exactly once, at any worker count.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 64} {
		const n = 100
		var mu sync.Mutex
		counts := make([]int, n)
		err := runParallel(p, n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
			mu.Lock()
			counts[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("p=%d: index %d ran %d times", p, i, c)
			}
		}
	}
}

// Errors are reported scheduling-independently: the failing job with the
// lowest index wins, exactly as in the serial loop.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("fail at 7")
	errB := errors.New("fail at 13")
	for _, p := range []int{1, 4, 16} {
		err := runParallel(p, 50, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
			switch i {
			case 7:
				return errA
			case 13:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Errorf("p=%d: got %v, want %v", p, err, errA)
		}
	}
}

// Per-worker state is created once per worker and never shared: with p
// workers, at most p states exist and no state is used concurrently.
func TestRunParallelWorkerState(t *testing.T) {
	const p, n = 4, 200
	var mu sync.Mutex
	states := 0
	type scratch struct{ busy bool }
	err := runParallel(p, n, func() *scratch {
		mu.Lock()
		states++
		mu.Unlock()
		return &scratch{}
	}, func(s *scratch, i int) error {
		if s.busy {
			t.Error("worker state used concurrently")
		}
		s.busy = true
		defer func() { s.busy = false }()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if states > p {
		t.Errorf("created %d states for %d workers", states, p)
	}
}
