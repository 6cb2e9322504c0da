package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/report"
)

// snapshotFor runs Figure5 and Table1 at the given worker count with a
// fresh registry and returns the merged snapshot plus the rendered
// Figure 5 text.
func snapshotFor(t *testing.T, parallel int) (*telemetry.Snapshot, string) {
	t.Helper()
	opts := smallOpts()
	opts.Parallel = parallel
	opts.Telemetry = telemetry.NewRegistry()
	f5, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Table1(opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f5.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return opts.Telemetry.Snapshot(), buf.String()
}

// TestTelemetryParallelDeterminism is the acceptance check of the
// telemetry layer: every counter and histogram in the merged snapshot —
// and the rendered experiment output — must be identical whether the grid
// ran serially or across 8 workers. Only wall-clock timers may differ.
func TestTelemetryParallelDeterminism(t *testing.T) {
	serial, outSerial := snapshotFor(t, 1)
	par, outPar := snapshotFor(t, 8)

	if outSerial != outPar {
		t.Error("rendered output differs between -parallel 1 and 8")
	}
	if !reflect.DeepEqual(serial.Counters, par.Counters) {
		t.Errorf("counters differ:\nserial: %v\npar:    %v", serial.Counters, par.Counters)
	}
	if !reflect.DeepEqual(serial.Histograms, par.Histograms) {
		t.Errorf("histograms differ:\nserial: %v\npar:    %v", serial.Histograms, par.Histograms)
	}
	// Timer identity is about which timers fired, not their durations.
	for name := range serial.Timers {
		if _, ok := par.Timers[name]; !ok {
			t.Errorf("timer %q present serially but not in parallel", name)
		}
	}

	// Reports built from the two runs must pass the default benchdiff
	// gate (timings excluded).
	mk := func(s *telemetry.Snapshot) *report.Report {
		r := report.New("experiments")
		r.AddSnapshot(s)
		return r
	}
	if fs := report.Diff(mk(serial), mk(par), report.DiffOptions{}); report.HasDrift(fs) {
		t.Errorf("serial and parallel reports drift: %v", fs)
	}
}

// TestTelemetryCoverage spot-checks that the pipeline stages actually
// report: a run must produce the advertised counter families.
func TestTelemetryCoverage(t *testing.T) {
	s, _ := snapshotFor(t, 0)
	for _, name := range []string{
		"tracegen/events", "tracegen/traces",
		"wcg/full_edges", "popular/procs",
		"trg/events_observed", "trg/select_edges", "trg/place_edges",
		"gbsc/merges", "gbsc/align_offsets",
		"cache/refs", "cache/misses", "cache/cold_misses", "cache/conflict_misses",
		"cache/batch_lanes", "cache/batch_lane_events",
		"placements/GBSC", "placements/PH", "placements/HKC",
	} {
		if s.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, s.Counters[name])
		}
	}
	if s.Counters["cache/cold_misses"]+s.Counters["cache/conflict_misses"] != s.Counters["cache/misses"] {
		t.Errorf("cold (%d) + conflict (%d) != misses (%d)",
			s.Counters["cache/cold_misses"], s.Counters["cache/conflict_misses"], s.Counters["cache/misses"])
	}
	h := s.Histograms["trg/q_procs"]
	if h.Count <= 0 || h.Mean() <= 0 {
		t.Errorf("trg/q_procs histogram empty: %+v", h)
	}
	if _, ok := s.Timers["prepare/wall"]; !ok {
		t.Error("prepare/wall timer missing")
	}
}

// TestRecord covers the result→report bridge for the result types that
// carry miss rates.
func TestRecord(t *testing.T) {
	opts := smallOpts()
	t1, err := Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := report.New("test")
	Record(rep, t1)
	Record(rep, f5)
	Record(rep, struct{}{}) // unknown result types are ignored
	Record(nil, t1)         // nil report is a no-op

	if len(rep.Benchmarks) != len(t1.Rows) {
		t.Fatalf("benchmarks = %d, want %d", len(rep.Benchmarks), len(t1.Rows))
	}
	for _, b := range rep.Benchmarks {
		for _, alg := range []string{"default", "PH", "HKC", "GBSC"} {
			if _, ok := b.MissRates[alg]; !ok {
				t.Errorf("%s: missing %s miss rate", b.Name, alg)
			}
		}
	}
}
