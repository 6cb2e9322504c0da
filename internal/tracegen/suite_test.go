package tracegen

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestLookup(t *testing.T) {
	pairs := Suite(0.05)
	if p := Lookup(pairs, "perl"); p == nil || p.Bench.Name != "perl" {
		t.Error("Lookup(perl) failed")
	}
	if p := Lookup(pairs, "nope"); p != nil {
		t.Error("Lookup(nope) returned a benchmark")
	}
}

func TestSuiteDeterministicAcrossCalls(t *testing.T) {
	a := Suite(0.05)
	b := Suite(0.05)
	for i := range a {
		pa, pb := a[i].Bench.Prog, b[i].Bench.Prog
		if pa.NumProcs() != pb.NumProcs() || pa.TotalSize() != pb.TotalSize() {
			t.Fatalf("%s: suite not deterministic", a[i].Bench.Name)
		}
		ta := a[i].Bench.Trace(a[i].Train)
		tb := b[i].Bench.Trace(b[i].Train)
		if ta.Len() != tb.Len() {
			t.Fatalf("%s: traces differ in length", a[i].Bench.Name)
		}
		for j := range ta.Events {
			if ta.Events[j] != tb.Events[j] {
				t.Fatalf("%s: trace event %d differs", a[i].Bench.Name, j)
			}
		}
		break // one benchmark suffices; full determinism is covered elsewhere
	}
}

func TestSuiteScaleFloorsEventCount(t *testing.T) {
	pairs := Suite(0.0001)
	for _, p := range pairs {
		if p.Train.Events < 2000 {
			t.Errorf("%s: train events %d below floor", p.Bench.Name, p.Train.Events)
		}
	}
}

// CheckScale accepts exactly the scales at which every input's event
// count is a finite number a trace can hold: perl's 520,000-event test
// input puts the limit near 2065.
func TestCheckScale(t *testing.T) {
	for _, ok := range []float64{0.0001, 1, 2000} {
		if err := CheckScale(ok); err != nil {
			t.Errorf("CheckScale(%g): %v", ok, err)
			continue
		}
		for _, p := range Suite(ok) {
			if p.Train.Events > trace.MaxDeclaredEvents || p.Test.Events > trace.MaxDeclaredEvents {
				t.Errorf("scale %g: %s inputs of %d and %d events", ok, p.Bench.Name, p.Train.Events, p.Test.Events)
			}
		}
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 2100} {
		if err := CheckScale(bad); err == nil {
			t.Errorf("CheckScale(%g) accepted", bad)
		}
	}
}

func TestTrainAndTestShareProgram(t *testing.T) {
	for _, p := range Suite(0.05) {
		train := p.Bench.Trace(p.Train)
		test := p.Bench.Trace(p.Test)
		if err := train.Validate(p.Bench.Prog); err != nil {
			t.Errorf("%s train: %v", p.Bench.Name, err)
		}
		if err := test.Validate(p.Bench.Prog); err != nil {
			t.Errorf("%s test: %v", p.Bench.Name, err)
		}
	}
}

func TestTraceDefaultEventBudget(t *testing.T) {
	b := MustNew(smallConfig())
	tr := b.Trace(Input{Seed: 1}) // Events unset → default
	if tr.Len() < 90_000 || tr.Len() > 110_000 {
		t.Errorf("default trace length %d, want ~100k", tr.Len())
	}
}

func TestTraceExtentsWithinProcedureSizes(t *testing.T) {
	b := MustNew(smallConfig())
	tr := b.Trace(Input{Seed: 2, Events: 5000})
	for i, e := range tr.Events {
		if int(e.Extent) > b.Prog.Size(e.Proc) {
			t.Fatalf("event %d extent %d exceeds size %d", i, e.Extent, b.Prog.Size(e.Proc))
		}
		if e.Extent <= 0 {
			t.Fatalf("event %d has non-positive extent", i)
		}
	}
}
