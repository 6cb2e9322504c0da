package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tracegen"
)

// writeFile creates name under dir, fills it, and returns its path.
func writeFile(t *testing.T, dir, name string, fill func(io.Writer) error) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// fixture writes a small m88ksim program and its test trace, plus the
// perl program, to a temporary directory.
func fixture(t *testing.T) (dir, prog, trace, perlProg string) {
	t.Helper()
	dir = t.TempDir()
	pair := tracegen.Lookup(tracegen.Suite(0.01), "m88ksim")
	prog = writeFile(t, dir, "m88ksim.prog", pair.Bench.Prog.WriteDescription)
	trace = writeFile(t, dir, "m88ksim.trace", tracegen.Generate(pair.Bench, pair.Test, nil).WriteBinary)
	perl := tracegen.Lookup(tracegen.Suite(0.01), "perl").Bench.Prog
	perlProg = writeFile(t, dir, "perl.prog", perl.WriteDescription)
	return dir, prog, trace, perlProg
}

// traceinfo runs the command on args and returns what it printed. A panic
// fails the test: every bad input must come back as an error.
func traceinfo(t *testing.T, args ...string) (out string, err error) {
	t.Helper()
	var buf bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("traceinfo %q panicked: %v", args, r)
		}
		out = buf.String()
	}()
	return "", run(args, &buf)
}

func TestSummary(t *testing.T) {
	dir, prog, trace, _ := fixture(t)
	dot := filepath.Join(dir, "select.dot")
	out, err := traceinfo(t, "-prog", prog, "-trace", trace, "-top", "3", "-cache", "4096", "-dot", dot)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"program:            460 procedures,",
		"activations:        2004\n",
		"(32-byte lines)\n",
		"(bound 8192B)\n",
		"TRG_select DOT:     " + dot + "\n",
		"\nhottest procedures:\nprocedure",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	table := out[strings.Index(out, "procedure "):]
	if rows := strings.Count(table, "\n") - 1; rows != 3 {
		t.Errorf("-top 3 listed %d procedures:\n%s", rows, table)
	}
	if _, err := os.Stat(dot); err != nil {
		t.Errorf("DOT file: %v", err)
	}
}

// Malformed or mismatched input and out-of-range flags must fail with an
// error before anything is printed or written, and never panic.
func TestBadInputReturnsError(t *testing.T) {
	dir, prog, trace, perlProg := fixture(t)
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	truncated := writeFile(t, dir, "truncated.trace", func(w io.Writer) error {
		_, err := w.Write(data[:len(data)/2])
		return err
	})
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	dot := filepath.Join(dir, "select.dot")
	base := []string{"-prog", prog, "-trace", trace, "-dot", dot}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"truncated trace", []string{"-prog", prog, "-trace", truncated, "-dot", dot}, ""},
		{"trace of another program", []string{"-prog", perlProg, "-trace", trace, "-dot", dot}, "invalid procedure"},
		{"zero line size", append(base, "-line", "0"), "-line"},
		{"negative line size", append(base, "-line", "-32"), "-line"},
		{"zero cache size", append(base, "-cache", "0"), "-cache"},
		{"negative top", append(base, "-top", "-1"), "-top"},
		{"undefined flag", append(base, "-bogus"), "flag provided but not defined"},
	} {
		out, err := traceinfo(t, tc.args...)
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
		if after, err := os.ReadDir(dir); err != nil || len(after) != len(before) {
			t.Errorf("%s: wrote files: %v (%v), want only %v", tc.name, after, err, before)
		}
	}
}
