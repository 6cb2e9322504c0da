// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON report on stdout, recording ns/op, B/op and
// allocs/op per benchmark. The Makefile's bench-json target pipes the
// recorded benchmarks through it to produce the committed BENCH_*.json
// files, the record of the hot-path perf trajectory:
//
//	go test -run '^$' -bench 'BenchmarkMergeNodes' -benchmem -count 5 . | benchjson
//
// Repeated rows of one benchmark (from -count) fold into one row holding
// the number of runs, the median of each value and the ns/op range, so a
// commit's record is not one noisy sample. The report also records the
// machine's CPU count, GOMAXPROCS and Go version as benchjson sees them,
// which the Makefile runs in the same shell as the benchmarks.
//
// Exit status: 0 on success, 1 when stdin holds no benchmark lines or
// cannot be parsed.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's results: the median of its runs' values.
// Pkg is the package named by the last "pkg:" header above its rows: one
// `go test -bench` run over several packages prints one header per
// package.
type Benchmark struct {
	Name string `json:"name"`
	Pkg  string `json:"pkg,omitempty"`
	// Runs is the number of result lines folded into this row;
	// NsPerOpMin and NsPerOpMax are the range of their ns/op.
	Runs        int     `json:"runs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. "events/sec" from the
	// TRG ingest benchmarks) keyed by the unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the full JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	GoVersion  string      `json:"go_version,omitempty"`
	NumCPU     int         `json:"nproc,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	if err := run(); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run() error {
	rep, err := parse(os.Stdin)
	if err != nil {
		return err
	}
	rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS = runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parse reads `go test -bench` output. Benchmark lines have the shape
//
//	BenchmarkName[-P]  iterations  value unit  [value unit ...]
//
// with units ns/op, B/op, allocs/op and MB/s; custom b.ReportMetric units
// are captured into the extra map; header lines carry the goos/goarch/cpu
// context and the package of the rows that follow them. The rows of one
// (package, name) fold into one Benchmark (see fold), in order of first
// appearance.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	var rows []Benchmark
	var pkg string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkFoo ... --- SKIP" shapes
		}
		b := Benchmark{Name: fields[0], Pkg: pkg, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = int64(val)
			case "allocs/op":
				b.AllocsPerOp = int64(val)
			case "MB/s":
				b.MBPerSec = val
			default:
				// Custom b.ReportMetric units pass through verbatim.
				if b.Extra == nil {
					b.Extra = map[string]float64{}
				}
				b.Extra[fields[i+1]] = val
			}
		}
		rows = append(rows, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin; pipe `go test -bench` output")
	}
	type key struct{ pkg, name string }
	groups := map[key][]Benchmark{}
	var order []key
	for _, b := range rows {
		k := key{b.Pkg, b.Name}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	for _, k := range order {
		rep.Benchmarks = append(rep.Benchmarks, fold(groups[k]))
	}
	return rep, nil
}

// fold merges one benchmark's runs into a row holding the median of each
// value (the mean of the middle two for an even count; integer values
// round to nearest), the ns/op range and the run count.
func fold(runs []Benchmark) Benchmark {
	med := func(get func(Benchmark) float64) float64 {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = get(r)
		}
		slices.Sort(vs)
		m := len(vs) / 2
		if len(vs)%2 == 0 {
			return (vs[m-1] + vs[m]) / 2
		}
		return vs[m]
	}
	round := func(v float64) int64 { return int64(math.Round(v)) }
	b := runs[0]
	b.Runs = len(runs)
	b.Iterations = round(med(func(r Benchmark) float64 { return float64(r.Iterations) }))
	b.NsPerOp = med(func(r Benchmark) float64 { return r.NsPerOp })
	b.BytesPerOp = round(med(func(r Benchmark) float64 { return float64(r.BytesPerOp) }))
	b.AllocsPerOp = round(med(func(r Benchmark) float64 { return float64(r.AllocsPerOp) }))
	b.MBPerSec = med(func(r Benchmark) float64 { return r.MBPerSec })
	b.NsPerOpMin, b.NsPerOpMax = math.Inf(1), math.Inf(-1)
	for _, r := range runs {
		b.NsPerOpMin = min(b.NsPerOpMin, r.NsPerOp)
		b.NsPerOpMax = max(b.NsPerOpMax, r.NsPerOp)
	}
	if b.Extra != nil {
		extra := make(map[string]float64, len(b.Extra))
		for unit := range b.Extra {
			extra[unit] = med(func(r Benchmark) float64 { return r.Extra[unit] })
		}
		b.Extra = extra
	}
	return b
}
