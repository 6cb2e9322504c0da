package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/tracegen"
)

// fixture is a small m88ksim program with its training trace, plus the
// perl program, written to a temporary directory.
type fixture struct {
	dir, prog, train, perlProg string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	pair := tracegen.Lookup(tracegen.Suite(0.01), "m88ksim")
	f := &fixture{dir: t.TempDir()}
	f.prog = f.write(t, "m88ksim.prog", pair.Bench.Prog.WriteDescription)
	f.train = f.write(t, "m88ksim-train.trace", tracegen.Generate(pair.Bench, pair.Train, nil).WriteBinary)
	perl := tracegen.Lookup(tracegen.Suite(0.01), "perl").Bench.Prog
	f.perlProg = f.write(t, "perl.prog", perl.WriteDescription)
	return f
}

// write creates name under the fixture directory, fills it, and returns
// its path.
func (f *fixture) write(t *testing.T, name string, fill func(io.Writer) error) string {
	t.Helper()
	path := filepath.Join(f.dir, name)
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = fill(file)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// layout runs the command on args and returns what it printed to stdout.
// A panic fails the test: every bad input must come back as an error.
func layout(t *testing.T, args ...string) (out string, err error) {
	t.Helper()
	var buf bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("layout %q panicked: %v", args, r)
		}
		out = buf.String()
	}()
	return "", run(args, &buf)
}

// Every algorithm prints a valid layout of the program and writes the same
// bytes to -out; every format renders the same placement.
func TestEveryAlgorithmAndFormat(t *testing.T) {
	f := newFixture(t)
	data, err := os.ReadFile(f.prog)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := program.ReadDescription(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	base := []string{"-prog", f.prog, "-trace", f.train}
	var gbsc *program.Layout
	for _, alg := range []string{"gbsc", "gbsc2", "ph", "hkc", "default"} {
		out, err := layout(t, append(base, "-alg", alg)...)
		if err != nil {
			t.Fatalf("-alg %s: %v", alg, err)
		}
		l, err := program.ReadLayout(strings.NewReader(out), prog)
		if err != nil {
			t.Fatalf("-alg %s: reading printed layout: %v", alg, err)
		}
		if err := l.Validate(); err != nil {
			t.Errorf("-alg %s: %v", alg, err)
		}
		path := filepath.Join(f.dir, alg+".layout")
		if _, err := layout(t, append(base, "-alg", alg, "-out", path)...); err != nil {
			t.Fatalf("-alg %s -out: %v", alg, err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != out {
			t.Errorf("-alg %s: -out file differs from the printed layout (%v)", alg, err)
		}
		if alg == "gbsc" {
			gbsc = l
		}
	}
	for format, write := range map[string]func(io.Writer) error{
		"layout":   gbsc.WriteLayout,
		"order":    gbsc.WriteOrder,
		"ldscript": func(w io.Writer) error { return gbsc.WriteLinkerScript(w, 0x400000) },
	} {
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatal(err)
		}
		got, err := layout(t, append(base, "-format", format)...)
		if err != nil {
			t.Fatalf("-format %s: %v", format, err)
		}
		if got != want.String() {
			t.Errorf("-format %s:\n%s\nwant\n%s", format, got, want.String())
		}
	}
}

// -pagelocal is a gbsc modifier that must run cleanly.
func TestGBSCModes(t *testing.T) {
	f := newFixture(t)
	if _, err := layout(t, "-prog", f.prog, "-trace", f.train, "-pagelocal"); err != nil {
		t.Errorf("-pagelocal: %v", err)
	}
}

// Malformed or mismatched input and bad flags must fail with an error
// before anything is printed, never panic, and leave an existing -out file
// byte for byte as it was.
func TestBadInputReturnsError(t *testing.T) {
	f := newFixture(t)
	data, err := os.ReadFile(f.train)
	if err != nil {
		t.Fatal(err)
	}
	truncated := f.write(t, "truncated.trace", func(w io.Writer) error {
		_, err := w.Write(data[:len(data)/2])
		return err
	})
	const kept = "an earlier layout\n"
	out := f.write(t, "kept.layout", func(w io.Writer) error {
		_, err := io.WriteString(w, kept)
		return err
	})
	before, err := os.ReadDir(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	base := []string{"-prog", f.prog, "-trace", f.train, "-out", out}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"truncated trace", []string{"-prog", f.prog, "-trace", truncated, "-out", out}, ""},
		{"trace of another program", []string{"-prog", f.perlProg, "-trace", f.train, "-out", out}, "invalid procedure"},
		{"unknown algorithm", append(base, "-alg", "bogus"), "bogus"},
		{"unknown format", append(base, "-format", "bogus"), "bogus"},
		{"zero chunk", append(base, "-chunk", "0"), "-chunk"},
		{"negative chunk", append(base, "-chunk", "-256"), "-chunk"},
		{"page locality with another algorithm", append(base, "-alg", "ph", "-pagelocal"), "-pagelocal"},
		{"removed static-bounds flag", append(base, "-static-bounds"), "flag provided but not defined"},
		{"removed check flag", append(base, "-check", "fatal"), "flag provided but not defined"},
	} {
		got, err := layout(t, tc.args...)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if got != "" {
			t.Errorf("%s: printed before failing:\n%s", tc.name, got)
		}
		if data, err := os.ReadFile(out); err != nil || string(data) != kept {
			t.Errorf("%s: -out file changed to %d bytes (%v), want it untouched", tc.name, len(data), err)
		}
		if after, err := os.ReadDir(f.dir); err != nil || len(after) != len(before) {
			t.Errorf("%s: wrote files: %v (%v), want only %v", tc.name, after, err, before)
		}
	}
}
