package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry/report"
)

// Suite generation reads a non-positive scale as full scale and overflows
// its event counts at an infinite or huge one, Options.Runs reads 0 as 40
// and Options.Parallel reads a negative count as serial, so -scale must be
// positive and small enough that every input fits in a trace, -runs
// positive and -parallel not negative; like an
// unknown -run or -bench name, a removed flag or a -csv that figure5 and
// figure6 would both write, a bad value fails before any experiment runs
// or any file is written. Each case's arguments follow the default -run and -bench, so
// its own wins. An unknown name is quoted, and no valid name is reported.
func TestBadFlagsReturnError(t *testing.T) {
	dir := t.TempDir()
	files := []string{"-stats", filepath.Join(dir, "report.json"), "-csv", filepath.Join(dir, "fig.csv")}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"negative scale", []string{"-scale", "-1"}, "-scale"},
		{"zero scale", []string{"-scale", "0"}, "-scale"},
		{"infinite scale", []string{"-scale", "+Inf"}, "-scale"},
		{"scale beyond a trace's event limit", []string{"-scale", "1e300"}, "-scale"},
		{"zero runs", []string{"-runs", "0"}, "-runs"},
		{"negative runs", []string{"-runs", "-1"}, "-runs"},
		{"runs below -1", []string{"-runs", "-2"}, "-runs"},
		{"negative parallel", []string{"-parallel", "-4"}, "-parallel"},
		{"csv for figure5 and figure6", []string{"-run", "figure5,figure6"}, "figure5 and figure6"},
		{"csv for all", []string{"-run", "all"}, "figure5 and figure6"},
		{"csv without figure5 or figure6", []string{"-run", "table1,padding"}, "-csv"},
		{"removed sample flag", []string{"-sample"}, "flag provided but not defined: -sample"},
		{"removed sample-windows flag", []string{"-sample-windows", "12"}, "flag provided but not defined: -sample-windows"},
		{"removed sample-interval flag", []string{"-sample-interval", "64"}, "flag provided but not defined: -sample-interval"},
		{"removed shards flag", []string{"-shards", "4"}, "flag provided but not defined"},
		{"removed check flag", []string{"-check", "fatal"}, "flag provided but not defined"},
		{"unknown experiment", []string{"-run", "table1,bogus"}, "bogus"},
		{"unknown padding benchmark", []string{"-run", "padding", "-bench", "bogus"}, "bogus"},
		{"unknown sameinput benchmark", []string{"-run", "sameinput", "-bench", "gcc,bogus"}, "bogus"},
		{"unknown benchmark after a space", []string{"-bench", "gcc, bogus"}, `"bogus"`},
	} {
		var out bytes.Buffer
		args := append([]string{"-run", "table1", "-bench", "perl"}, tc.args...)
		err := run(append(args, files...), &out)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if parse := strings.Contains(tc.want, "not defined"); errors.Is(err, errUsage) != parse {
			t.Errorf("%s: error %q marked as a flag-parse error: %v, want %v", tc.name, err, !parse, parse)
		}
		for _, valid := range []string{"gcc", "perl"} {
			if strings.Contains(err.Error(), valid) {
				t.Errorf("%s: error %q names the valid benchmark %s", tc.name, err, valid)
			}
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed before failing:\n%s", tc.name, out.String())
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("%s: wrote %v (%v)", tc.name, entries, err)
		}
	}
}

// -bench entries are trimmed like -run entries, so a list written with
// spaces selects exactly the benchmarks it names.
func TestBenchListWithSpaces(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "table1", "-bench", "perl, m88ksim", "-scale", "0.01"}, &out); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && (f[0] == "perl" || f[0] == "m88ksim") {
			rows = append(rows, f[0])
		}
	}
	if strings.Join(rows, ",") != "perl,m88ksim" {
		t.Errorf("table rows %v, want perl and m88ksim:\n%s", rows, out.String())
	}
}

// The whole smoke evaluation reproduces the CI golden, which was produced
// with every step preparing its own inputs, from one shared store: its
// report counts the 12 traces (6 benchmarks × 2 inputs) and 18 TRGs (4, 8
// and 16 KB) once each.
func TestSmokeGolden(t *testing.T) {
	want, err := os.ReadFile("../../ci_smoke_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	stats := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := run([]string{"-run", "all", "-scale", "0.05", "-runs", "3", "-seed", "1", "-stats", stats}, &out); err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Fatalf("line %d: got %q, golden %q", i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden %d", len(got), len(wantLines))
	}
	f, err := os.Open(stats)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := report.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Counters["tracegen/traces"]; n != 12 {
		t.Errorf("tracegen/traces = %d, want 12", n)
	}
	if n := rep.Timers["trg/build_wall"].Count; n != 18 {
		t.Errorf("trg/build_wall count = %d, want 18", n)
	}
}
