package cache

import (
	"reflect"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// The dense line index: per-line state (first-touch stamps, the classified
// replay's shadow) takes one entry per line the layout's classes touch,
// however far apart the layout places them.

// TestDenseLineIndexSharedLines pins the dense count on a hand-built
// layout: a and b share line 1, procedure c runs at two extents (the
// narrower first), d sits at 2^44 and e at line 257. Nine distinct lines,
// so nine indices. e evicts
// the shared line between a's fetch and b's, so b's miss on it is a
// conflict miss: an index per class instead of per line would count it
// cold.
func TestDenseLineIndexSharedLines(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 48},  // lines 0–1
		{Name: "b", Size: 48},  // lines 1–2
		{Name: "c", Size: 100}, // lines 128–131, or 128–129 at 40 bytes
		{Name: "d", Size: 32},  // line 2^39: set 0, evicting line 0
		{Name: "e", Size: 32},  // line 257: set 1 of 256
	})
	layout := program.NewLayout(prog)
	for p, addr := range []int{0, 48, 4096, 1 << 44, 8224} {
		layout.SetAddr(program.ProcID(p), addr)
	}
	tr := &trace.Trace{Events: []trace.Event{
		{Proc: 0}, {Proc: 4}, {Proc: 1}, {Proc: 2, Extent: 40}, {Proc: 2}, {Proc: 3}, {Proc: 0, Repeat: 3},
	}}
	cfg := PaperConfig
	ct := CompileTrace(prog, tr)
	tab, err := CompileLayout(cfg, ct, layout)
	if err != nil {
		t.Fatal(err)
	}
	if tab.lines != 9 {
		t.Fatalf("dense index covers %d lines, want 9", tab.lines)
	}
	want := newRefSim(cfg).runTraceOracle(layout, tr)
	if want.Cold != 9 || want.Misses != 11 {
		t.Fatalf("oracle %+v, want 11 misses of which 9 cold", want)
	}
	if got := MustNewSim(cfg).RunCompiled(ct, layout); got != want {
		t.Errorf("engine %+v, oracle %+v", got, want)
	}
	cs, _, err := RunCompiledClassified(cfg, ct, layout)
	if err != nil {
		t.Fatal(err)
	}
	wantCS, err := runTraceClassifiedOracle(cfg, layout, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cs, wantCS) {
		t.Errorf("classified %+v, oracle %+v", cs, wantCS)
	}
}

// farLayouts returns m88ksim's scale-0.05 testing trace and two copies of
// its link-order layout, with the hottest procedure, m88ksim_hot014, moved
// to each of addrs.
func farLayouts(t *testing.T, addrs ...int) ([]*program.Layout, *trace.Trace) {
	t.Helper()
	pair := tracegen.Lookup(tracegen.Suite(0.05), "m88ksim")
	prog := pair.Bench.Prog
	hot, ok := prog.Lookup("m88ksim_hot014")
	if !ok {
		t.Fatal("m88ksim has no procedure m88ksim_hot014")
	}
	layouts := make([]*program.Layout, len(addrs))
	for i, addr := range addrs {
		layouts[i] = program.DefaultLayout(prog)
		layouts[i].SetAddr(hot, addr)
		if err := layouts[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return layouts, pair.Bench.Trace(pair.Test)
}

// TestDenseLineIndexFarProcedure moves m88ksim's hottest procedure to 2^44.
// Sized by the highest line, the first-touch stamps would take 2 TB. The
// dense count is checked before anything is bound, so a regression fails
// here instead of allocating; then the plain and classified replays must
// equal the map-based oracles, and the plain one the same layout with the
// procedure at 573,440 (≡ 2^44 mod 8192, past the 562,176-byte link
// order), which maps every line to the same set.
func TestDenseLineIndexFarProcedure(t *testing.T) {
	layouts, tr := farLayouts(t, 1<<44, 573440)
	layout, near := layouts[0], layouts[1]
	ct := CompileTrace(layout.Program(), tr)
	for _, cfg := range []Config{PaperConfig, {SizeBytes: 8192, LineBytes: 32, Assoc: 2}} {
		tab, err := CompileLayout(cfg, ct, layout)
		if err != nil {
			t.Fatal(err)
		}
		var spans int64
		for _, r := range tab.recs {
			spans += int64(r.span)
		}
		if tab.lines > spans {
			t.Fatalf("%+v: dense index covers %d lines, more than the classes' %d", cfg, tab.lines, spans)
		}
		want := newRefSim(cfg).runTraceOracle(layout, tr)
		if got := MustNewSim(cfg).RunCompiled(ct, layout); got != want {
			t.Errorf("%+v: engine %+v, oracle %+v", cfg, got, want)
		}
		if got := MustNewSim(cfg).RunCompiled(ct, near); got != want {
			t.Errorf("%+v: procedure at 573440 scores %+v, at 2^44 %+v", cfg, got, want)
		}
		cs, _, err := RunCompiledClassified(cfg, ct, layout)
		if err != nil {
			t.Fatal(err)
		}
		wantCS, err := runTraceClassifiedOracle(cfg, layout, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cs, wantCS) {
			t.Errorf("%+v: classified %+v, oracle %+v", cfg, cs.Stats, wantCS.Stats)
		}
	}
}

// TestTLBFarProcedure moves m88ksim's hottest procedure to 2^44. Sized by
// the highest page, the iTLB's LRU list would take 2^32 entries (tens of
// gigabytes); on the dense page index the layout scores as the same layout
// with the procedure at 2^20, past the link order, and as the per-page
// oracle.
func TestTLBFarProcedure(t *testing.T) {
	layouts, tr := farLayouts(t, 1<<44, 1<<20)
	far, near := layouts[0], layouts[1]
	cfg := TLBConfig{Entries: 64, PageBytes: 4096}
	ct := CompileTrace(far.Program(), tr)
	got, _, err := RunCompiledTLB(cfg, ct, far)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runTraceTLBOracle(cfg, far, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("engine %+v, oracle %+v", got, want)
	}
	if got, _, err := RunCompiledTLB(cfg, ct, near); err != nil || got != want {
		t.Errorf("procedure at 2^20 scores %+v (%v), at 2^44 %+v", got, err, want)
	}
}
