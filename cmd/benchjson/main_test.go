package main

import (
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
