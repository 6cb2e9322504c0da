// Package report defines the versioned, machine-readable run report the
// cmd binaries emit under -stats, plus the comparison logic cmd/benchdiff
// uses to gate CI on two reports.
//
// A report separates deterministic measurements (per-benchmark,
// per-algorithm miss rates; pipeline counters; histograms) from
// environment-dependent ones (wall/CPU timers, allocation stats). Two
// reports produced by the same commit at different -parallel settings must
// agree exactly on the deterministic sections, and Diff compares nothing
// else: timers and allocations are never compared.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"

	"repro/internal/telemetry"
)

// Version identifies the report schema. Diff refuses nothing on a version
// mismatch but reports it, so CI jobs comparing across commits see schema
// drift explicitly.
const Version = 1

// Benchmark carries one benchmark's headline results.
type Benchmark struct {
	Name string `json:"name"`
	// MissRates maps an algorithm label (PH, HKC, GBSC, default, ...) to
	// the instruction-cache miss rate measured on the testing trace.
	MissRates map[string]float64 `json:"miss_rates"`
}

// AllocStats summarizes the Go runtime's allocation counters at report
// time. Environment-dependent; never gated.
type AllocStats struct {
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
}

// Report is one run's full record: the BENCH_<rev>.json artifact CI
// uploads and benchdiff consumes.
type Report struct {
	Version   int    `json:"version"`
	Cmd       string `json:"cmd"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	MaxProcs  int    `json:"max_procs"`
	// Params records the flag values that shaped the run (scale, runs,
	// seed, parallel, ...), as strings for schema stability.
	Params     map[string]string                   `json:"params,omitempty"`
	Benchmarks []Benchmark                         `json:"benchmarks,omitempty"`
	Counters   map[string]int64                    `json:"counters,omitempty"`
	Histograms map[string]telemetry.HistogramStats `json:"histograms,omitempty"`
	Timers     map[string]telemetry.TimerStats     `json:"timers,omitempty"`
	Alloc      *AllocStats                         `json:"alloc,omitempty"`
}

// New creates an empty report for the named command, stamped with the
// build environment.
func New(cmd string) *Report {
	return &Report{
		Version:   Version,
		Cmd:       cmd,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Params:    map[string]string{},
	}
}

// AddMissRate records one (benchmark, algorithm) miss rate, creating the
// benchmark entry on first use.
func (r *Report) AddMissRate(bench, alg string, missRate float64) {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == bench {
			r.Benchmarks[i].MissRates[alg] = missRate
			return
		}
	}
	r.Benchmarks = append(r.Benchmarks, Benchmark{
		Name:      bench,
		MissRates: map[string]float64{alg: missRate},
	})
}

// AddSnapshot copies a telemetry snapshot's merged counters, timers and
// histograms into the report.
func (r *Report) AddSnapshot(s *telemetry.Snapshot) {
	if s == nil {
		return
	}
	if len(s.Counters) > 0 {
		r.Counters = s.Counters
	}
	if len(s.Timers) > 0 {
		r.Timers = s.Timers
	}
	if len(s.Histograms) > 0 {
		r.Histograms = s.Histograms
	}
}

// CaptureAlloc records the runtime's current allocation statistics.
func (r *Report) CaptureAlloc() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Alloc = &AllocStats{
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		HeapAllocBytes:  ms.HeapAlloc,
		NumGC:           ms.NumGC,
	}
}

// Write emits the report as indented JSON with benchmarks sorted by name,
// so two equivalent reports serialize identically (encoding/json already
// sorts map keys).
func Write(w io.Writer, r *Report) error {
	sort.Slice(r.Benchmarks, func(i, j int) bool { return r.Benchmarks[i].Name < r.Benchmarks[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Read parses a report written by Write. Unknown future fields are
// rejected so a schema bump cannot be silently half-read.
func Read(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("report: decoding: %w", err)
	}
	if r.Version <= 0 {
		return nil, fmt.Errorf("report: missing schema version")
	}
	return &r, nil
}

// Finding is one comparison result. Drift findings are gate failures;
// the rest are informational notes.
type Finding struct {
	Drift  bool
	Kind   string // "schema", "missrate", "counter", "histogram"
	Key    string
	Detail string
}

func (f Finding) String() string {
	tag := "note"
	if f.Drift {
		tag = "DRIFT"
	}
	return fmt.Sprintf("%s %s %s: %s", tag, f.Kind, f.Key, f.Detail)
}

// HasDrift reports whether any finding is a gate failure.
func HasDrift(fs []Finding) bool {
	for _, f := range fs {
		if f.Drift {
			return true
		}
	}
	return false
}

// Diff compares two reports and returns deterministic, sorted findings.
// old is the baseline (e.g. the previous commit's artifact), new the
// candidate. Miss rates, counters and histograms must agree exactly: the
// pipelines are deterministic, so any difference is drift, and so is a
// benchmark, miss-rate cell, counter or histogram present in one report
// only (a renamed or dropped key cannot pass the gate). Timers and
// allocation statistics are never compared.
func Diff(old, new *Report) []Finding {
	var fs []Finding
	if old.Version != new.Version {
		fs = append(fs, Finding{Drift: false, Kind: "schema", Key: "version",
			Detail: fmt.Sprintf("%d vs %d", old.Version, new.Version)})
	}
	fs = append(fs, diffMissRates(old, new)...)
	fs = append(fs, diffCounters(old.Counters, new.Counters)...)
	fs = append(fs, diffHistograms(old.Histograms, new.Histograms)...)
	return fs
}

func diffMissRates(old, new *Report) []Finding {
	oldB := map[string]Benchmark{}
	for _, b := range old.Benchmarks {
		oldB[b.Name] = b
	}
	newB := map[string]Benchmark{}
	for _, b := range new.Benchmarks {
		newB[b.Name] = b
	}
	var fs []Finding
	for _, name := range sortedKeys(oldB, newB) {
		ob, inOld := oldB[name]
		nb, inNew := newB[name]
		if !inOld || !inNew {
			fs = append(fs, Finding{Drift: true, Kind: "schema", Key: "benchmark/" + name,
				Detail: presence(inOld, inNew)})
			continue
		}
		for _, alg := range sortedKeys(ob.MissRates, nb.MissRates) {
			omr, inO := ob.MissRates[alg]
			nmr, inN := nb.MissRates[alg]
			key := name + "/" + alg
			if !inO || !inN {
				fs = append(fs, Finding{Drift: true, Kind: "missrate", Key: key,
					Detail: presence(inO, inN)})
				continue
			}
			if omr != nmr {
				fs = append(fs, Finding{Drift: true, Kind: "missrate", Key: key,
					Detail: fmt.Sprintf("%.6f%% -> %.6f%%", 100*omr, 100*nmr)})
			}
		}
	}
	return fs
}

func diffCounters(old, new map[string]int64) []Finding {
	var fs []Finding
	for _, name := range sortedKeys(old, new) {
		ov, inO := old[name]
		nv, inN := new[name]
		if !inO || !inN {
			fs = append(fs, Finding{Drift: true, Kind: "counter", Key: name,
				Detail: presence(inO, inN)})
			continue
		}
		if ov != nv {
			fs = append(fs, Finding{Drift: true, Kind: "counter", Key: name,
				Detail: fmt.Sprintf("%d -> %d", ov, nv)})
		}
	}
	return fs
}

func diffHistograms(old, new map[string]telemetry.HistogramStats) []Finding {
	var fs []Finding
	for _, name := range sortedKeys(old, new) {
		oh, inO := old[name]
		nh, inN := new[name]
		if !inO || !inN {
			fs = append(fs, Finding{Drift: true, Kind: "histogram", Key: name,
				Detail: presence(inO, inN)})
			continue
		}
		// Each aspect is checked independently: a histogram whose count,
		// sum, and buckets all drifted yields three findings, so the gate
		// output names every discrepancy in one pass instead of revealing
		// them one fix at a time.
		if oh.Count != nh.Count {
			fs = append(fs, Finding{Drift: true, Kind: "histogram", Key: name,
				Detail: fmt.Sprintf("count %d -> %d", oh.Count, nh.Count)})
		}
		if oh.Sum != nh.Sum {
			fs = append(fs, Finding{Drift: true, Kind: "histogram", Key: name,
				Detail: fmt.Sprintf("sum %d -> %d", oh.Sum, nh.Sum)})
		}
		if !equalBuckets(oh.Buckets, nh.Buckets) {
			fs = append(fs, Finding{Drift: true, Kind: "histogram", Key: name,
				Detail: "bucket counts differ"})
		}
	}
	return fs
}

func equalBuckets(a, b []int64) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	at := func(s []int64, i int) int64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		if at(a, i) != at(b, i) {
			return false
		}
	}
	return true
}

// sortedKeys returns the sorted union of both maps' keys.
func sortedKeys[V any](a, b map[string]V) []string {
	set := map[string]bool{}
	// repolint:allow nodeterm/maporder: set insertion is commutative, union sorted before use
	for k := range a {
		set[k] = true
	}
	// repolint:allow nodeterm/maporder: same commutative set insertion.
	for k := range b {
		set[k] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func presence(inOld, inNew bool) string {
	switch {
	case inOld && !inNew:
		return "present in old report only"
	case !inOld && inNew:
		return "present in new report only"
	}
	return "present in both"
}
