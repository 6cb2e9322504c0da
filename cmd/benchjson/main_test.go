package main

import (
	"fmt"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkHeaviestEdge     	       3	   3630278 ns/op	  466032 B/op	      81 allocs/op
BenchmarkBestAlignment    	    6000	    196793 ns/op	       0 B/op	       0 allocs/op
BenchmarkThroughput       	     100	      1234 ns/op	 512.50 MB/s
BenchmarkTRGBuildSharded8 	       3	 193043968 ns/op	  777051 events/sec
PASS
ok  	repro	2.345s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("header = %q/%q", rep.Goos, rep.Goarch)
	}
	for _, b := range rep.Benchmarks {
		if b.Pkg != "repro" {
			t.Errorf("%s: pkg = %q, want repro", b.Name, b.Pkg)
		}
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	he := rep.Benchmarks[0]
	if he.Name != "BenchmarkHeaviestEdge" || he.Iterations != 3 ||
		he.NsPerOp != 3630278 || he.BytesPerOp != 466032 || he.AllocsPerOp != 81 {
		t.Errorf("HeaviestEdge parsed as %+v", he)
	}
	ba := rep.Benchmarks[1]
	if ba.BytesPerOp != 0 || ba.AllocsPerOp != 0 || ba.NsPerOp != 196793 {
		t.Errorf("BestAlignment parsed as %+v", ba)
	}
	if tp := rep.Benchmarks[2]; tp.MBPerSec != 512.50 {
		t.Errorf("MB/s parsed as %+v", tp)
	}
	if tr := rep.Benchmarks[3]; tr.Extra["events/sec"] != 777051 {
		t.Errorf("events/sec parsed as %+v", tr)
	}
}

// One run over several packages prints a header per package; every row
// keeps the package it was printed under.
func TestParseKeepsEachRowsPackage(t *testing.T) {
	const twoPkgs = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGBSCPlacement-2  	     174	   6519656 ns/op
BenchmarkMergeNodes-2     	    4064	    297917 ns/op
PASS
ok  	repro	2.345s
goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBestAlignment-2  	  300000	      3512 ns/op
PASS
ok  	repro/internal/core	1.234s
`
	rep, err := parse(strings.NewReader(twoPkgs))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"BenchmarkGBSCPlacement-2": "repro",
		"BenchmarkMergeNodes-2":    "repro",
		"BenchmarkBestAlignment-2": "repro/internal/core",
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for _, b := range rep.Benchmarks {
		if b.Pkg != want[b.Name] {
			t.Errorf("%s: pkg = %q, want %q", b.Name, b.Pkg, want[b.Name])
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("want error on input with no benchmark lines")
	}
}

func TestParseRejectsGarbageValue(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX 5 abc ns/op\n")); err == nil {
		t.Fatal("want error on unparsable value")
	}
}

// foldInput repeats two benchmarks the way `go test -count` prints them,
// with BenchmarkB also present in a second package.
func foldInput(nsA []string) string {
	var sb strings.Builder
	sb.WriteString("pkg: repro\ncpu: Intel(R) Xeon(R) Processor @ 2.10GHz\n")
	for i, ns := range nsA {
		fmt.Fprintf(&sb, "BenchmarkA-2  \t %d\t %s ns/op\t %d B/op\t %d allocs/op\t %d.5 events/sec\n", 100+i, ns, 1000+10*i, 7+i, 40+i)
	}
	sb.WriteString("BenchmarkB-2  \t 9\t 50 ns/op\nBenchmarkB-2  \t 9\t 70 ns/op\nPASS\n")
	sb.WriteString("pkg: repro/internal/core\nBenchmarkB-2  \t 3\t 900 ns/op\nPASS\n")
	return sb.String()
}

// Repeated rows of one (package, name) fold into one row in order of first
// appearance: the run count, the median of every value and the ns/op
// range.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		ns                       []string
		wantNs, wantMin, wantMax float64
		wantIters                int64
		wantBytes                int64
		wantAllocs               int64
		wantEvents               float64
	}{
		// Odd count: the middle value of each field, taken separately.
		{"odd", []string{"300", "100", "200"}, 200, 100, 300, 101, 1010, 8, 41.5},
		// Even count: the mean of the middle two, integers rounded.
		{"even", []string{"400", "100", "300", "200"}, 250, 100, 400, 102, 1015, 9, 42},
		// One run is its own median and range.
		{"single", []string{"123"}, 123, 123, 123, 100, 1000, 7, 40.5},
	} {
		rep, err := parse(strings.NewReader(foldInput(tc.ns)))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Benchmarks) != 3 {
			t.Fatalf("%s: %d rows, want 3: %+v", tc.name, len(rep.Benchmarks), rep.Benchmarks)
		}
		if a := rep.Benchmarks[0]; a.Name != "BenchmarkA-2" || a.Runs != len(tc.ns) ||
			a.NsPerOp != tc.wantNs || a.NsPerOpMin != tc.wantMin || a.NsPerOpMax != tc.wantMax ||
			a.Iterations != tc.wantIters || a.BytesPerOp != tc.wantBytes || a.AllocsPerOp != tc.wantAllocs ||
			a.Extra["events/sec"] != tc.wantEvents {
			t.Errorf("%s: folded to %+v", tc.name, a)
		}
		if b := rep.Benchmarks[1]; b.Pkg != "repro" || b.Runs != 2 || b.NsPerOp != 60 || b.NsPerOpMin != 50 || b.NsPerOpMax != 70 {
			t.Errorf("%s: BenchmarkB in repro folded to %+v", tc.name, b)
		}
		if c := rep.Benchmarks[2]; c.Pkg != "repro/internal/core" || c.Runs != 1 || c.NsPerOp != 900 {
			t.Errorf("%s: BenchmarkB in repro/internal/core folded to %+v", tc.name, c)
		}
	}
}
