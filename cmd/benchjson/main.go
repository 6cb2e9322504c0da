// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON report on stdout, recording ns/op, B/op and
// allocs/op per benchmark. The Makefile's bench-json target pipes the GBSC
// merge-loop benchmarks through it to produce BENCH_gbsc.json, the
// committed record of the placement hot-path perf trajectory:
//
//	go test -run '^$' -bench 'BenchmarkMergeNodes' -benchmem . | benchjson
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
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line. Pkg is the package named by the
// last "pkg:" header above it: one `go test -bench` run over several
// packages prints one header per package.
type Benchmark struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
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
// context and the package of the rows that follow them.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
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
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin; pipe `go test -bench` output")
	}
	return rep, nil
}
