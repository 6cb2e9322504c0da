package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/report"
)

// writeReport serializes r to a file under dir and returns its path.
func writeReport(t *testing.T, dir, name string, r *report.Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Write(f, r); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// baseReport is a small experiments report with one miss rate, one
// counter and one timer.
func baseReport() *report.Report {
	r := report.New("experiments")
	r.AddMissRate("perl", "GBSC", 0.0123)
	r.Counters = map[string]int64{"cache/misses": 123}
	r.Timers = map[string]telemetry.TimerStats{"prepare/wall": {Count: 1, TotalNS: 1e9, MaxNS: 1e9}}
	return r
}

// benchdiff runs the command on args and returns what it printed.
func benchdiff(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// The comparison is exact: identical reports pass, any changed miss rate
// or counter drifts, and timers are never compared.
func TestExactComparison(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport())

	out, err := benchdiff(base, writeReport(t, dir, "same.json", baseReport()))
	if err != nil || !strings.Contains(out, "no drift") {
		t.Errorf("identical reports: err = %v, output %q, want no drift", err, out)
	}

	slow := baseReport()
	slow.Timers["prepare/wall"] = telemetry.TimerStats{Count: 1, TotalNS: 100e9, MaxNS: 100e9}
	out, err = benchdiff(base, writeReport(t, dir, "slow.json", slow))
	if err != nil || !strings.Contains(out, "no drift") {
		t.Errorf("100x slower timer: err = %v, output %q, want no drift", err, out)
	}

	missRate := baseReport()
	missRate.AddMissRate("perl", "GBSC", 0.0124)
	counter := baseReport()
	counter.Counters["cache/misses"]++
	for _, tc := range []struct {
		name string
		rep  *report.Report
		key  string
	}{
		{"miss rate", missRate, "missrate perl/GBSC"},
		{"counter", counter, "counter cache/misses"},
	} {
		out, err := benchdiff(base, writeReport(t, dir, tc.name+".json", tc.rep))
		if !errors.Is(err, errDrift) {
			t.Errorf("changed %s: err = %v, want drift", tc.name, err)
		}
		if !strings.Contains(out, "DRIFT "+tc.key) {
			t.Errorf("changed %s: output %q does not name %s", tc.name, out, tc.key)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", baseReport())
	b := writeReport(t, dir, "b.json", baseReport())
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"one argument", []string{"only-one.json"}, "two report files"},
		{"missing files", []string{"missing-a.json", "missing-b.json"}, "missing-a.json"},
		{"removed within-ci flag", []string{"-within-ci", a, b}, "flag provided but not defined"},
		{"removed miss-tol flag", []string{"-miss-tol", "0.01", a, b}, "flag provided but not defined"},
		{"removed counter-tol flag", []string{"-counter-tol", "0.01", a, b}, "flag provided but not defined"},
		{"removed timing-tol flag", []string{"-timing-tol", "0.25", a, b}, "flag provided but not defined"},
		{"removed allow-new-keys flag", []string{"-allow-new-keys", a, b}, "flag provided but not defined"},
	} {
		out, err := benchdiff(tc.args...)
		if err == nil || errors.Is(err, errDrift) || errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s: err = %v, want usage or I/O error", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if parse := strings.Contains(tc.want, "not defined"); errors.Is(err, errUsage) != parse {
			t.Errorf("%s: error %q marked as a flag-parse error: %v, want %v", tc.name, err, !parse, parse)
		}
		if out != "" {
			t.Errorf("%s: printed %q", tc.name, out)
		}
	}
	if _, err := benchdiff("-h"); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp", err)
	}
}
