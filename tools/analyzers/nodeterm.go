package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// nodetermScope lists the packages whose outputs the determinism contract
// covers: everything that feeds the rendered tables and the run report. The
// cmd layer may read clocks (telemetry timers); the pipeline may not.
var nodetermScope = []string{
	"repro/internal/core",
	"repro/internal/trg",
	"repro/internal/place",
	"repro/internal/wcg",
	"repro/internal/experiments",
	"repro/internal/cache",
	"repro/internal/sample",
	"repro/internal/optimal",
	"repro/internal/telemetry",
	"repro/internal/anneal",
	"repro/internal/metrics",
	"repro/internal/baseline",
	"repro/internal/popular",
	"repro/internal/perturb",
	"repro/internal/split",
	"repro/internal/bb",
	"repro/internal/tracegen",
	"repro/internal/graph",
}

// NoDeterm flags nondeterminism sources in the deterministic pipeline
// packages: wall-clock reads, the global (unseeded) math/rand source, and
// map iteration feeding ordered output.
var NoDeterm = &Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall clocks, the global rand source, and map-ordered output in deterministic pipeline packages",
	Applies: func(path string) bool {
		for _, s := range nodetermScope {
			if path == s || strings.HasPrefix(path, s+"/") {
				return true
			}
		}
		return false
	},
	Run: runNoDeterm,
}

// globalRandAllowed are the math/rand package functions that do not touch
// the global source: constructors for explicitly seeded generators.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runNoDeterm(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pkgPath, name := selectorPkgFunc(p.Info, n)
				switch {
				case pkgPath == "time" && name == "Now":
					p.Reportf(n.Pos(), "nodeterm/time",
						"time.Now in a deterministic pipeline package; results must not depend on the wall clock")
				case pkgPath == "math/rand" && !globalRandAllowed[name]:
					if isFunc(p.Info, n.Sel) {
						p.Reportf(n.Pos(), "nodeterm/rand",
							"rand.%s uses the global math/rand source; construct rand.New(rand.NewSource(seed)) instead", name)
					}
				}
			case *ast.RangeStmt:
				checkMapRange(p, n)
			}
			return true
		})
	}
}

// isFunc reports whether id resolves to a function (not a type or const),
// so rand.Rand / rand.Source type references stay legal.
func isFunc(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Func)
	return ok
}

// checkMapRange flags ranging over a map except the one canonical shape
// that cannot leak iteration order: a loop body that only collects keys
// into a slice (which the surrounding code then sorts — enforcing the sort
// is beyond a per-statement check, but the collect-then-sort idiom is the
// only reason to collect keys at all).
func checkMapRange(p *Pass, r *ast.RangeStmt) {
	tv, ok := p.Info.Types[r.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if isKeyCollectLoop(r) {
		return
	}
	p.Reportf(r.Pos(), "nodeterm/maporder",
		"map iteration order is random; collect keys, sort, then index (or suppress with an allow comment if the fold is commutative)")
}

// isKeyCollectLoop matches exactly:
//
//	for k := range m { keys = append(keys, k) }
//	for k := range m { keys = append(keys, f(k)) }
//
// — a single append of (a function of) the key, no value variable used.
func isKeyCollectLoop(r *ast.RangeStmt) bool {
	if r.Value != nil {
		return false
	}
	key, ok := r.Key.(*ast.Ident)
	if !ok || len(r.Body.List) != 1 {
		return false
	}
	asg, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	// The appended expression must mention the key and nothing else that
	// could carry order (any expression of the key alone is fine).
	mentionsKey := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == key.Name {
			mentionsKey = true
		}
		return true
	})
	return mentionsKey
}
