package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// tracegenRun runs the command on args and returns what it printed. A panic
// fails the test: every bad input must come back as an error.
func tracegenRun(t *testing.T, args ...string) (out string, err error) {
	t.Helper()
	var buf bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("tracegen %q panicked: %v", args, r)
		}
		out = buf.String()
	}()
	return "", run(args, &buf)
}

// The written program and trace are the suite's m88ksim pair, readable
// back through the interchange formats.
func TestWritesProgramAndTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "m.trace")
	progPath := filepath.Join(dir, "m.prog")
	out, err := tracegenRun(t, "-bench", "m88ksim", "-input", "test", "-scale", "0.01",
		"-out", tracePath, "-prog", progPath)
	if err != nil {
		t.Fatal(err)
	}
	pair := tracegen.Lookup(tracegen.Suite(0.01), "m88ksim")
	want := tracegen.Generate(pair.Bench, pair.Test, nil)
	if line := "m88ksim/" + pair.Test.Name + ": 2004 events,"; !strings.HasPrefix(out, line) {
		t.Errorf("output %q does not start with %q", out, line)
	}
	if !strings.HasSuffix(out, "→ "+tracePath+", "+progPath+"\n") {
		t.Errorf("output %q does not name the written files", out)
	}

	progData, err := os.ReadFile(progPath)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := program.ReadDescription(bytes.NewReader(progData))
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumProcs() != pair.Bench.Prog.NumProcs() || prog.TotalSize() != pair.Bench.Prog.TotalSize() {
		t.Errorf("program: %d procedures, %d bytes; want %d, %d", prog.NumProcs(), prog.TotalSize(),
			pair.Bench.Prog.NumProcs(), pair.Bench.Prog.TotalSize())
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadBinary(bytes.NewReader(traceData))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tr.Events, want.Events) {
		t.Errorf("trace (%d events) differs from the suite's m88ksim test input (%d events)", tr.Len(), want.Len())
	}
}

// tracegen.Suite reads a non-positive scale as full scale, so -scale must
// be positive; like the other bad flags, a bad value fails before any file
// is written.
func TestBadFlagsReturnError(t *testing.T) {
	dir := t.TempDir()
	files := []string{"-out", filepath.Join(dir, "x.trace"), "-prog", filepath.Join(dir, "x.prog"),
		"-stats", filepath.Join(dir, "x.json")}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero scale", []string{"-scale", "0"}, "-scale"},
		{"negative scale", []string{"-scale", "-1"}, "-scale"},
		{"unknown benchmark", []string{"-bench", "nope"}, "nope"},
		{"unknown input", []string{"-input", "ref"}, "ref"},
		{"removed shards flag", []string{"-shards", "1"}, "flag provided but not defined"},
	} {
		out, err := tracegenRun(t, append(tc.args, files...)...)
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
		if out != "" {
			t.Errorf("%s: printed before failing:\n%s", tc.name, out)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("%s: wrote %v (%v)", tc.name, entries, err)
		}
	}
}
