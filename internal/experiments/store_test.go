package experiments

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tracegen"
	"repro/internal/trg"
)

// getAll asks m for key k from n goroutines at once and returns what each
// saw.
func getAll[V any](m *memo[string, V], n int, build func() (V, error)) ([]V, []error) {
	vals, errs := make([]V, n), make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			vals[i], errs[i] = m.get("k", build)
		}()
	}
	start.Done()
	done.Wait()
	return vals, errs
}

// Many goroutines asking for one key see one build and the same entry,
// and so does a later request.
func TestMemoBuildsOnce(t *testing.T) {
	var m memo[string, *int]
	var builds atomic.Int64
	build := func() (*int, error) {
		builds.Add(1)
		return new(int), nil
	}
	vals, errs := getAll(&m, 32, build)
	later, err := m.get("k", build)
	for i, v := range append(vals, later) {
		if v != vals[0] || v == nil {
			t.Errorf("requester %d got entry %p, requester 0 %p", i, v, vals[0])
		}
	}
	for i, err := range append(errs, err) {
		if err != nil {
			t.Errorf("requester %d: %v", i, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds of one key, want 1", n)
	}
}

// A failed build is not retried: every requester, concurrent or later,
// gets the error of the one build.
func TestMemoSharesFailure(t *testing.T) {
	var m memo[string, *int]
	var builds atomic.Int64
	build := func() (*int, error) {
		return nil, fmt.Errorf("build %d failed", builds.Add(1))
	}
	_, errs := getAll(&m, 32, build)
	_, err := m.get("k", build)
	for i, err := range append(errs, err) {
		if err == nil || err != errs[0] {
			t.Errorf("requester %d got error %v, requester 0 %v", i, err, errs[0])
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds of one failing key, want 1", n)
	}
}

// Each cache size gets its own TRG, equal to a fresh build for that size:
// the sweep's 4 and 16 KB rows must not read the 8 KB graphs.
func TestStoreKeysTRGsByCacheBytes(t *testing.T) {
	s := NewStore(0.05)
	pair := tracegen.Lookup(s.pairs, "perl")
	var sh *telemetry.Shard
	train, pop := s.trace(sh, pair, pair.Train).tr, s.profile(sh, pair).pop
	var paper *trg.Result
	for _, bytes := range []int{8192, 4096, 16384} {
		got, err := s.trg(sh, pair, bytes)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trg.Build(pair.Bench.Prog, train, trg.Options{CacheBytes: bytes, Popular: pop})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d-byte TRG differs from a fresh build (avg Q %.3f, want %.3f)", bytes, got.AvgQProcs, want.AvgQProcs)
		}
		// perl's popular code outgrows every Q bound here, so each size
		// has its own graphs.
		if paper == nil {
			paper = got
		} else if reflect.DeepEqual(got, paper) {
			t.Errorf("%d-byte TRG equals the 8192-byte one", bytes)
		}
	}
}

// Calls sharing a store prepare each input once; a call at another scale
// leaves the store untouched.
func TestStoreSharedAcrossCalls(t *testing.T) {
	opts := smallOpts()
	opts.Store = NewStore(opts.Scale)
	opts.Telemetry = telemetry.NewRegistry()
	t1, err := Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CacheSweep(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := SameInput(opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Telemetry.Snapshot()
	// Two inputs per benchmark, and TRGs for 4, 8 and 16 KB.
	n := len(opts.Benchmarks)
	if got := snap.Counters["tracegen/traces"]; got != int64(2*n) {
		t.Errorf("tracegen/traces = %d, want %d", got, 2*n)
	}
	if got := snap.Timers["trg/build_wall"].Count; got != int64(3*n) {
		t.Errorf("trg/build_wall count = %d, want %d", got, 3*n)
	}

	other := opts
	other.Scale = 0.1
	if _, err := Table1(other); err != nil {
		t.Fatal(err)
	}
	if got := opts.Telemetry.Snapshot().Counters["tracegen/traces"]; got != int64(4*n) {
		t.Errorf("tracegen/traces = %d after a call at another scale, want %d", got, 4*n)
	}
	again, err := Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, t1) {
		t.Error("Table 1 from the shared store changed after a call at another scale")
	}
}

// Only the store generates the suite and its traces: a driver that built
// its own programs would hand the replay layouts of programs its compiled
// traces do not know.
func TestOnlyStoreGeneratesInputs(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range packageFiles(t, fset) {
		if fset.Position(f.Pos()).Filename == "store.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if selects(n, "tracegen", "Suite", "Generate") {
				t.Errorf("%s: calls tracegen.%s outside the store", fset.Position(n.Pos()), n.(*ast.SelectorExpr).Sel.Name)
			}
			return true
		})
	}
}

// Steps sharing a store place each unperturbed layout once: one default,
// PH and HKC layout per benchmark, and GBSC for the direct-mapped 4, 8 and
// 16 KB caches, which the sweep's 2-way 8 KB geometry shares with the
// paper cache. The steps run at once, so several of them ask for one
// layout concurrently.
func TestStorePlacesEachLayoutOnce(t *testing.T) {
	opts := smallOpts()
	opts.Store = NewStore(opts.Scale)
	opts.Telemetry = telemetry.NewRegistry()
	var wg sync.WaitGroup
	for _, step := range []func(Options) error{
		discard(Table1), discard(Conflicts), discard(CacheSweep), discard(SetAssoc), discard(SameInput),
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := step(opts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	counters := opts.Telemetry.Snapshot().Counters
	n := int64(len(opts.Benchmarks))
	for alg, want := range map[AlgorithmName]int64{AlgDefault: n, AlgPH: n, AlgHKC: n, AlgGBSC: 3 * n} {
		if got := counters["placements/"+string(alg)]; got != want {
			t.Errorf("placements/%s = %d, want %d", alg, got, want)
		}
	}
}

// discard adapts an experiment to a step that reports only its error.
func discard[R any](run func(Options) (R, error)) func(Options) error {
	return func(o Options) error {
		_, err := run(o)
		return err
	}
}

// Only buildTRG builds TRGs, so every TRG a placement reads, stored or
// not, passes invariant.CheckTRG first.
func TestOnlyBuildTRGBuildsTRGs(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range packageFiles(t, fset) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "buildTRG" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if selects(n, "trg", "Build", "BuildWithStats") {
					t.Errorf("%s: builds a TRG outside buildTRG", fset.Position(n.Pos()))
				}
				return true
			})
		}
	}
}

// packageFiles parses the package's non-test files.
func packageFiles(t *testing.T, fset *token.FileSet) []*ast.File {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// selects reports whether n selects one of names from package pkg.
func selects(n ast.Node, pkg string, names ...string) bool {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg && slices.Contains(names, sel.Sel.Name)
}

// A failed TRG build fails every driver that reads it with the build's
// error.
func TestStoreFailedTRG(t *testing.T) {
	s := NewStore(0.05)
	pair := tracegen.Lookup(s.pairs, "perl")
	var errs []error
	for i := 0; i < 2; i++ {
		// A negative cache size is rejected by the TRG builder.
		_, err := s.bench(nil, pair, pair.Test, -1)
		errs = append(errs, err)
	}
	if errs[0] == nil || errs[0] != errs[1] {
		t.Fatalf("errors %v and %v, want one shared build error", errs[0], errs[1])
	}
	if !strings.Contains(errs[0].Error(), "perl") || errors.Unwrap(errs[0]) == nil {
		t.Errorf("error %q does not wrap the build's error for perl", errs[0])
	}
}
