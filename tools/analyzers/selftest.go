package analyzers

import (
	"fmt"
	"strings"
)

// selfTestCase is one fixture package with the findings it must (and must
// not) produce.
type selfTestCase struct {
	name  string
	path  string
	files map[string]string
	// want lists (rule, message-substring) pairs that must each match at
	// least one diagnostic.
	want [][2]string
	// forbid lists rules that must not appear.
	forbid []string
}

// selfTestCases are compiled and linted by SelfTest. The first case is the
// acceptance fixture for the suite: a time.Now call placed (synthetically)
// in repro/internal/core must be flagged.
var selfTestCases = []selfTestCase{
	{
		name: "nondeterminism in a pipeline package",
		path: "repro/internal/core",
		files: map[string]string{"fixture.go": `package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func Stamp() int64 { return time.Now().UnixNano() }

func Roll() int { return rand.Intn(6) }

func SeededRoll(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}

func Render(m map[string]int) []string {
	var out []string
	for k, v := range m {
		out = append(out, fmt.Sprint(k, v))
	}
	return out
}

func RenderSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		out = append(out, fmt.Sprint(k, m[k]))
	}
	return out
}

func Total(m map[string]int) int {
	total := 0
	// repolint:allow nodeterm/maporder: integer sum is commutative
	for _, v := range m {
		total += v
	}
	return total
}
`},
		want: [][2]string{
			{"nodeterm/time", "time.Now"},
			{"nodeterm/rand", "rand.Intn"},
			{"nodeterm/maporder", "map iteration"},
		},
	},
	{
		name: "clean pipeline package",
		path: "repro/internal/trg",
		files: map[string]string{"fixture.go": `package trg

import (
	"math/rand"
	"sort"
)

func Draw(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`},
		forbid: []string{"nodeterm/time", "nodeterm/rand", "nodeterm/maporder"},
	},
	{
		name: "time.Now outside the determinism scope is legal",
		path: "repro/internal/program",
		files: map[string]string{"fixture.go": `package program

import "time"

func Stamp() time.Time { return time.Now() }
`},
		forbid: []string{"nodeterm/time"},
	},
	{
		name: "stale allow comments are flagged, used ones are not",
		path: "repro/internal/core",
		files: map[string]string{"fixture.go": `package core

import "time"

// repolint:allow nodeterm/time: timer fixture
func Stamp() int64 { return time.Now().UnixNano() }

// repolint:allow nodeterm/rand: nothing random below anymore
func Fixed() int { return 4 }

func Sum(xs []int) int { // repolint:allow nodeterm/maporder: slice range was once a map
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
`},
		want: [][2]string{
			{"stalallow/unused", "nodeterm/rand"},
			{"stalallow/unused", "nodeterm/maporder"},
		},
		forbid: []string{"nodeterm/time"},
	},
	{
		name: "an acknowledged stale allow is itself allowable",
		path: "repro/internal/core",
		files: map[string]string{"fixture.go": `package core

// repolint:allow nodeterm/rand, stalallow/unused: kept while the rand path is behind a build tag
func Fixed() int { return 4 }
`},
		forbid: []string{"stalallow/unused"},
	},
	{
		name: "direct Events iteration in an experiment driver",
		path: "repro/internal/experiments",
		files: map[string]string{"fixture.go": `package experiments

type Trace struct{ Events []int }

func Refs(tr *Trace) int {
	total := 0
	for _, e := range tr.Events {
		total += e
	}
	return total
}

func Len(tr *Trace) int {
	n := 0
	// repolint:allow tracereplay/events: counting events, not replaying
	for range tr.Events {
		n++
	}
	return n
}

type Stats struct{ Events int64 }

func Sum(ss []Stats) int64 {
	var total int64
	for _, s := range ss {
		total += s.Events
	}
	return total
}
`},
		want: [][2]string{
			{"tracereplay/events", "compiled replay"},
		},
	},
	{
		name: "Events iteration outside the experiments scope is legal",
		path: "repro/internal/tracegen",
		files: map[string]string{"fixture.go": `package tracegen

type Trace struct{ Events []int }

func Refs(tr *Trace) int {
	total := 0
	for _, e := range tr.Events {
		total += e
	}
	return total
}
`},
		forbid: []string{"tracereplay/events"},
	},
	{
		name: "cmd main doing the work itself",
		path: "repro/cmd/badcmd",
		files: map[string]string{"main.go": `package main

import (
	"fmt"
	"os"
)

func main() {
	f, err := os.Open("input")
	if err != nil {
		fmt.Println(err)
		os.Exit(2)
	}
	f.Close()
}
`},
		want: [][2]string{
			{"runerr/main", "os.Open"},
			{"runerr/main", "never calls run()"},
			{"runerr/close", "f.Close"},
		},
	},
	{
		name: "cmd with the run() pattern",
		path: "repro/cmd/goodcmd",
		files: map[string]string{"main.go": `package main

import (
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	f, err := os.Open("input")
	if err != nil {
		return err
	}
	_, err = f.Stat()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
`},
		forbid: []string{"runerr/main", "runerr/close"},
	},
}

// SelfTest compiles the built-in fixtures and verifies the analyzers flag
// exactly what they must: the known-broken fixtures produce their expected
// findings and the known-clean ones produce none. It returns nil when the
// suite behaves, making it cheap for CI to prove the lint gate is alive
// before trusting a clean repo run.
func SelfTest() error {
	for _, tc := range selfTestCases {
		diags, err := LintSource(tc.path, tc.files)
		if err != nil {
			return fmt.Errorf("selftest %q: %w", tc.name, err)
		}
		for _, w := range tc.want {
			if !hasDiag(diags, w[0], w[1]) {
				return fmt.Errorf("selftest %q: no %s finding mentioning %q in %v", tc.name, w[0], w[1], diags)
			}
		}
		for _, rule := range tc.forbid {
			for _, d := range diags {
				if d.Rule == rule {
					return fmt.Errorf("selftest %q: unexpected %s finding: %s", tc.name, rule, d)
				}
			}
		}
	}
	return nil
}

func hasDiag(diags []Diagnostic, rule, substr string) bool {
	for _, d := range diags {
		if d.Rule == rule && strings.Contains(d.Msg+d.Pos.String(), substr) {
			return true
		}
	}
	return false
}
