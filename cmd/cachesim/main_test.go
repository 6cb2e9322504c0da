package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/telemetry/report"
	"repro/internal/tracegen"
)

// fixture is a small tracegen program, its test trace and three distinct
// layouts of it, written to a temporary directory.
type fixture struct {
	dir, prog, trace string
	layouts          []string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	pair := tracegen.Lookup(tracegen.Suite(0.01), "m88ksim")
	prog := pair.Bench.Prog
	f := &fixture{dir: t.TempDir()}
	f.prog = f.write(t, "m88ksim.prog", prog.WriteDescription)
	f.trace = f.write(t, "m88ksim.trace", tracegen.Generate(pair.Bench, pair.Test, nil).WriteBinary)

	link := program.DefaultLayout(prog)
	order := link.OrderByAddress()
	slices.Reverse(order)
	reversed, err := program.OrderedLayout(prog, order)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		name   string
		layout *program.Layout
	}{{"link", link}, {"reversed", reversed}, {"padded", link.PadAll(32)}} {
		f.layouts = append(f.layouts, f.write(t, l.name+".layout", l.layout.WriteLayout))
	}
	return f
}

// write creates name under the fixture directory, fills it, and returns
// its path.
func (f *fixture) write(t *testing.T, name string, fill func(io.Writer) error) string {
	t.Helper()
	path := filepath.Join(f.dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
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

// cachesim runs the command on args and returns what it printed. A panic
// fails the test: every bad input must come back as an error.
func cachesim(t *testing.T, args ...string) (out string, err error) {
	t.Helper()
	var buf bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("cachesim %q panicked: %v", args, r)
		}
		out = buf.String()
	}()
	return "", run(args, &buf)
}

// splitHeader splits one run's output into the run header (the cache
// geometry) and the per-layout figures, which start at "refs".
func splitHeader(t *testing.T, out string) (header, body string) {
	t.Helper()
	i := strings.Index(out, "\nrefs")
	if i < 0 {
		t.Fatalf("no figures in output:\n%s", out)
	}
	return out[:i+1], out[i+1:]
}

// A multi-layout run scores its layouts in one batch, so each section
// must equal the run with that layout alone — direct-mapped and LRU.
func TestMultiLayoutMatchesSingleRuns(t *testing.T) {
	f := newFixture(t)
	for _, mode := range [][]string{nil, {"-assoc", "2"}} {
		args := append([]string{"-prog", f.prog, "-trace", f.trace}, mode...)
		var header string
		var want strings.Builder
		bodies := map[string]bool{}
		for i, path := range f.layouts {
			out, err := cachesim(t, append(args, "-layout", path)...)
			if err != nil {
				t.Fatalf("%v %s: %v", mode, path, err)
			}
			h, body := splitHeader(t, out)
			if i == 0 {
				header = h
				want.WriteString(h)
			} else if h != header {
				t.Errorf("%v: header %q differs from %q", mode, h, header)
			}
			name := strings.TrimSuffix(filepath.Base(path), ".layout")
			fmt.Fprintf(&want, "\n== %s ==\n%s", name, body)
			bodies[body] = true
		}
		if len(bodies) < 2 {
			t.Fatalf("%v: fixture layouts all score alike", mode)
		}
		got, err := cachesim(t, append(args, "-layout", strings.Join(f.layouts, ","))...)
		if err != nil {
			t.Fatalf("%v multi-layout: %v", mode, err)
		}
		if got != want.String() {
			t.Errorf("%v: multi-layout output\n%s\nwant the single-layout runs\n%s", mode, got, want.String())
		}
	}
}

// A -classify run is the same simulation as a plain run, so the two run
// reports must agree on every figure they share; the three-C split is
// printed, not recorded as cache/conflict_misses. The 2 KB cache gives the
// fixture capacity misses, without which the three-C conflict count and
// misses − cold coincide.
func TestClassifyReportMatchesPlain(t *testing.T) {
	f := newFixture(t)
	var reports []*report.Report
	for i, mode := range [][]string{nil, {"-classify"}} {
		path := filepath.Join(f.dir, fmt.Sprintf("report%d.json", i))
		args := append([]string{"-prog", f.prog, "-trace", f.trace, "-layout", f.layouts[0], "-cache", "2048", "-stats", path}, mode...)
		out, err := cachesim(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if mode != nil && strings.Contains(out, "capacity 0,") {
			t.Fatalf("fixture has no capacity misses:\n%s", out)
		}
		rf, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := report.Read(rf)
		rf.Close()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		reports = append(reports, rep)
	}
	plain, classified := reports[0], reports[1]
	for _, key := range []string{"cache/refs", "cache/misses", "cache/cold_misses", "cache/conflict_misses"} {
		p, pok := plain.Counters[key]
		c, cok := classified.Counters[key]
		if !pok || !cok || p != c {
			t.Errorf("%s: plain %d (recorded %v), -classify %d (recorded %v)", key, p, pok, c, cok)
		}
	}
	if len(plain.Benchmarks) != 1 || len(classified.Benchmarks) != 1 {
		t.Fatalf("benchmarks: plain %+v, -classify %+v", plain.Benchmarks, classified.Benchmarks)
	}
	if p, c := plain.Benchmarks[0].MissRates["sim"], classified.Benchmarks[0].MissRates["sim"]; p == 0 || p != c {
		t.Errorf("sim miss rate: plain %v, -classify %v", p, c)
	}
}

// A layout may place a procedure at any address. With m88ksim's hottest
// procedure moved to 2^44, every mode must print exactly what it prints
// with the procedure at 573,440, which is ≡ 2^44 mod 8192 (the same sets)
// and just past the 562,176-byte link order: the simulator's per-line
// state is sized by the lines the trace touches, not by the address.
func TestFarProcedureMatchesNear(t *testing.T) {
	pair := tracegen.Lookup(tracegen.Suite(0.05), "m88ksim")
	prog := pair.Bench.Prog
	hot, ok := prog.Lookup("m88ksim_hot014")
	if !ok {
		t.Fatal("m88ksim has no procedure m88ksim_hot014")
	}
	f := &fixture{dir: t.TempDir()}
	f.prog = f.write(t, "m88ksim.prog", prog.WriteDescription)
	f.trace = f.write(t, "m88ksim.trace", tracegen.Generate(pair.Bench, pair.Test, nil).WriteBinary)
	var paths [2]string
	for i, addr := range []int{1 << 44, 573440} {
		l := program.DefaultLayout(prog)
		l.SetAddr(hot, addr)
		paths[i] = f.write(t, fmt.Sprintf("hot%d.layout", i), l.WriteLayout)
	}
	for _, mode := range [][]string{nil, {"-classify"}, {"-assoc", "2"}} {
		var outs [2]string
		for i, path := range paths {
			out, err := cachesim(t, append([]string{"-prog", f.prog, "-trace", f.trace, "-layout", path}, mode...)...)
			if err != nil {
				t.Fatalf("%v %s: %v", mode, path, err)
			}
			outs[i] = out
		}
		if !strings.Contains(outs[1], "refs:") {
			t.Fatalf("%v: no figures in output:\n%s", mode, outs[1])
		}
		if outs[0] != outs[1] {
			t.Errorf("%v: procedure at 2^44 prints\n%s\nat 573440\n%s", mode, outs[0], outs[1])
		}
	}
}

// Malformed or mismatched input must fail with an error naming the
// problem, before anything is printed, and never panic.
func TestBadInputReturnsError(t *testing.T) {
	f := newFixture(t)
	trace, err := os.ReadFile(f.trace)
	if err != nil {
		t.Fatal(err)
	}
	truncated := f.write(t, "truncated.trace", func(w io.Writer) error {
		_, err := w.Write(trace[:len(trace)/2])
		return err
	})
	perl := tracegen.Lookup(tracegen.Suite(0.01), "perl").Bench.Prog
	foreign := f.write(t, "perl.layout", program.DefaultLayout(perl).WriteLayout)
	layout, err := os.ReadFile(f.layouts[0])
	if err != nil {
		t.Fatal(err)
	}
	copyLayout := func(w io.Writer) error {
		_, err := w.Write(layout)
		return err
	}
	dupA := f.write(t, "a/gbsc.layout", copyLayout)
	dupB := f.write(t, "b/gbsc.layout", copyLayout)

	base := []string{"-prog", f.prog, "-trace", f.trace}
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"truncated trace", []string{"-prog", f.prog, "-trace", truncated}, nil},
		{"layout of another program", append(base, "-layout", foreign), []string{"unknown procedure"}},
		{"invalid geometry", append(base, "-line", "0"), []string{"non-positive"}},
		{"duplicate label", append(base, "-layout", dupA+","+dupB), []string{dupA, dupB, `"gbsc"`}},
		{"removed batch flag", append(base, "-batch", "1"), []string{"flag provided but not defined"}},
		{"removed static-bounds flag", append(base, "-static-bounds"), []string{"flag provided but not defined"}},
		{"removed check flag", append(base, "-check", "fatal"), []string{"flag provided but not defined"}},
		{"negative top", append(base, "-classify", "-top", "-1"), []string{"-top"}},
		{"removed sample flag", append(base, "-sample"), []string{"flag provided but not defined: -sample"}},
		{"removed sample-windows flag", append(base, "-sample-windows", "12"), []string{"flag provided but not defined: -sample-windows"}},
		{"removed sample-interval flag", append(base, "-sample-interval", "64"), []string{"flag provided but not defined: -sample-interval"}},
	} {
		out, err := cachesim(t, tc.args...)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
		if parse := strings.Contains(tc.name, "flag"); errors.Is(err, errUsage) != parse {
			t.Errorf("%s: error %q marked as a flag-parse error: %v, want %v", tc.name, err, !parse, parse)
		}
		if out != "" {
			t.Errorf("%s: printed before failing:\n%s", tc.name, out)
		}
	}
}
