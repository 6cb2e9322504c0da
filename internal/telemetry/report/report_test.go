package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func sampleReport() *Report {
	reg := telemetry.NewRegistry()
	sh := reg.Shard()
	sh.Add("cache/misses", 123)
	sh.Add("trg/events_observed", 5000)
	sh.Observe("trg/q_procs", 17)
	sh.AddDuration("prepare/wall", 42*time.Millisecond)

	r := New("experiments")
	r.Params["scale"] = "0.05"
	r.AddMissRate("perl", "GBSC", 0.0123)
	r.AddMissRate("perl", "PH", 0.0456)
	r.AddMissRate("m88ksim", "GBSC", 0.031)
	r.AddSnapshot(reg.Snapshot())
	r.CaptureAlloc()
	return r
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != Version || got.Cmd != "experiments" {
		t.Errorf("round trip lost header: %+v", got)
	}
	if got.Counters["cache/misses"] != 123 {
		t.Errorf("counters lost: %v", got.Counters)
	}
	if got.Histograms["trg/q_procs"].Count != 1 {
		t.Errorf("histograms lost: %v", got.Histograms)
	}
	if fs := Diff(r, got); HasDrift(fs) {
		t.Errorf("round-tripped report drifts from itself: %v", fs)
	}
	// Benchmarks come back sorted by name, so two Write calls of
	// equivalent reports serialize identically.
	if r.Benchmarks[0].Name != "m88ksim" {
		t.Errorf("benchmarks not sorted: %v", r.Benchmarks[0].Name)
	}
}

func TestReadRejectsUnversioned(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"cmd":"x"}`)); err == nil {
		t.Fatal("expected error for missing version")
	}
	if _, err := Read(strings.NewReader(`{"version":1,"bogus_field":3}`)); err == nil {
		t.Fatal("expected error for unknown field")
	}
}

func TestDiffIdentical(t *testing.T) {
	a, b := sampleReport(), sampleReport()
	// Timers are environment-dependent and never compared: even a tenfold
	// slowdown is not drift.
	a.Timers["prepare/wall"] = telemetry.TimerStats{Count: 1, TotalNS: 1e9, MaxNS: 1e9}
	b.Timers["prepare/wall"] = telemetry.TimerStats{Count: 1, TotalNS: 10e9, MaxNS: 10e9}
	if fs := Diff(a, b); len(fs) != 0 {
		t.Errorf("identical reports differ: %v", fs)
	}
}

func TestDiffMissRateDrift(t *testing.T) {
	a, b := sampleReport(), sampleReport()
	b.AddMissRate("perl", "GBSC", 0.0125) // +0.0002 absolute
	if fs := Diff(a, b); !HasDrift(fs) {
		t.Error("exact comparison missed a changed miss rate")
	}
	// A benchmark or an algorithm column present on one side only drifts,
	// whichever side has it.
	c := sampleReport()
	c.AddMissRate("vortex", "GBSC", 0.02)
	d := sampleReport()
	d.AddMissRate("perl", "HKC", 0.05)
	e := sampleReport()
	delete(e.Benchmarks[0].MissRates, "PH") // perl loses its PH cell
	for _, other := range []*Report{c, d, e} {
		if fs := Diff(a, other); !HasDrift(fs) {
			t.Errorf("added key must drift: %v", fs)
		}
		if fs := Diff(other, a); !HasDrift(fs) {
			t.Errorf("removed key must drift: %v", fs)
		}
	}
}

func TestDiffCounterDrift(t *testing.T) {
	a, b := sampleReport(), sampleReport()
	b.Counters["cache/misses"] = 124
	if fs := Diff(a, b); !HasDrift(fs) {
		t.Error("exact comparison missed a changed counter")
	}
	// A counter present on one side only drifts, whichever side has it:
	// a renamed or dropped counter must not pass the gate.
	b.Counters["cache/misses"] = 123
	delete(b.Counters, "trg/events_observed")
	for _, fs := range [][]Finding{Diff(a, b), Diff(b, a)} {
		if len(fs) != 1 || !fs[0].Drift || fs[0].Kind != "counter" || fs[0].Key != "trg/events_observed" {
			t.Errorf("one-sided counter should be one drift finding: %v", fs)
		}
	}
}

func TestDiffHistogramDrift(t *testing.T) {
	a, b := sampleReport(), sampleReport()
	h := b.Histograms["trg/q_procs"]
	h.Sum += 3
	b.Histograms["trg/q_procs"] = h
	if fs := Diff(a, b); !HasDrift(fs) {
		t.Error("exact comparison missed a changed histogram sum")
	}
	// A histogram present on one side only drifts, whichever side has it.
	c := sampleReport()
	delete(c.Histograms, "trg/q_procs")
	for _, fs := range [][]Finding{Diff(a, c), Diff(c, a)} {
		if len(fs) != 1 || !fs[0].Drift || fs[0].Kind != "histogram" || fs[0].Key != "trg/q_procs" {
			t.Errorf("one-sided histogram should be one drift finding: %v", fs)
		}
	}
}

func TestDiffHistogramReportsEveryAspect(t *testing.T) {
	a, b := sampleReport(), sampleReport()
	h := b.Histograms["trg/q_procs"]
	h.Count += 2
	h.Sum += 3
	h.Buckets = append([]int64{}, h.Buckets...)
	h.Buckets[0] += 5
	b.Histograms["trg/q_procs"] = h
	fs := Diff(a, b)
	var details []string
	for _, f := range fs {
		if f.Drift && f.Kind == "histogram" && f.Key == "trg/q_procs" {
			details = append(details, f.Detail)
		}
	}
	if len(details) != 3 {
		t.Fatalf("want count+sum+bucket findings, got %v", details)
	}
	for i, want := range []string{"count", "sum", "bucket"} {
		if !strings.Contains(details[i], want) {
			t.Errorf("finding %d = %q, want mention of %q", i, details[i], want)
		}
	}
}

func TestDiffReportsAllDriftingKeys(t *testing.T) {
	a, b := sampleReport(), sampleReport()
	b.AddMissRate("perl", "GBSC", 0.5)
	b.AddMissRate("m88ksim", "GBSC", 0.5)
	b.Counters["cache/misses"] = 999
	fs := Diff(a, b)
	keys := map[string]bool{}
	for _, f := range fs {
		if f.Drift {
			keys[f.Kind+"/"+f.Key] = true
		}
	}
	for _, want := range []string{"missrate/perl/GBSC", "missrate/m88ksim/GBSC", "counter/cache/misses"} {
		if !keys[want] {
			t.Errorf("drift for %s not reported; got %v", want, keys)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Drift: true, Kind: "missrate", Key: "perl/GBSC", Detail: "x"}
	if got := f.String(); !strings.HasPrefix(got, "DRIFT ") {
		t.Errorf("drift finding string = %q", got)
	}
	f.Drift = false
	if got := f.String(); !strings.HasPrefix(got, "note ") {
		t.Errorf("note finding string = %q", got)
	}
}
