package cache

import (
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

func TestTLBConfigValidate(t *testing.T) {
	if err := (TLBConfig{Entries: 32, PageBytes: 8192}).Validate(); err != nil {
		t.Error(err)
	}
	// The last spans more bytes than an int holds.
	for _, bad := range []TLBConfig{{}, {Entries: 32}, {PageBytes: 8192}, {Entries: 1 << 40, PageBytes: 1 << 40}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

func TestTLBHitsWithinWorkingSet(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 100},
		{Name: "b", Size: 100},
	})
	l := program.NewLayout(prog)
	l.SetAddr(0, 0)
	l.SetAddr(1, 8192)
	tr := trace.MustFromNames(prog, "a", "b", "a", "b", "a", "b")
	st, err := RunTraceTLB(TLBConfig{Entries: 4, PageBytes: 8192}, l, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != 6 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 6 refs 2 cold misses", st)
	}
}

func TestTLBThrashesBeyondCapacity(t *testing.T) {
	// Three pages cycling through a 2-entry TLB: every access misses.
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 100},
		{Name: "b", Size: 100},
		{Name: "c", Size: 100},
	})
	l := program.NewLayout(prog)
	l.SetAddr(0, 0)
	l.SetAddr(1, 8192)
	l.SetAddr(2, 16384)
	tr := trace.MustFromNames(prog, "a", "b", "c", "a", "b", "c")
	st, err := RunTraceTLB(TLBConfig{Entries: 2, PageBytes: 8192}, l, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 6 {
		t.Errorf("misses = %d, want 6 (LRU cycle thrash)", st.Misses)
	}
}

func TestTLBSamePageIsFree(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 100},
		{Name: "b", Size: 100},
	})
	l := program.DefaultLayout(prog) // both on page 0
	tr := trace.MustFromNames(prog, "a", "b", "a", "b")
	st, err := RunTraceTLB(TLBConfig{Entries: 2, PageBytes: 8192}, l, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 cold", st.Misses)
	}
}

func TestTLBSpanningExtent(t *testing.T) {
	prog := program.MustNew([]program.Procedure{{Name: "big", Size: 20000}})
	l := program.DefaultLayout(prog)
	tr := trace.MustFromNames(prog, "big")
	st, err := RunTraceTLB(TLBConfig{Entries: 8, PageBytes: 8192}, l, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != 3 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 3 page refs (pages 0-2)", st)
	}
}
