// Command perfbench is the repository's pipeline benchmark. It runs one
// workload through the layer packages' exported functions, in the order
// cmd/layout, cmd/cachesim and experiments.Figure5 call them, and times
// each call from outside:
//
//	place    profile → TRG → GBSC layout → exact replay, per suite program
//	figure5  the paper's Figure 5 grid: prepare, place PH/HKC/GBSC, score
//	score    fixed layout panels scored direct-mapped, 2-way LRU and sampled
//	search   exhaustive optimal placement of tiny programs
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload figure5 --seed 1 --seconds 10 --trace 0
//
// The seed generates the workload's inputs during set-up; seed 1 reproduces
// the checked-in suite, and its outputs are checked against expected.json.
// Set-up runs several times and reports its median CPU time. The run then
// repeats passes of the workload from one goroutine until --seconds of wall
// time have passed, and reports medians over the passes. With --trace 1 it
// alternates untraced and traced passes, reports per-layer metrics from the
// spans of the traced ones and writes the spans as JSON under
// .bench_build/spans/.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the workloads
// and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one workload after set-up; run executes one pass of it.
type workload interface {
	run(p *pass)
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(seed int64) (workload, error){
	"place":   newPlace,
	"figure5": newFigure5,
	"score":   newScore,
	"search":  newSearch,
}

// An untraced run sets up at least minSetups times and for at least
// setupSeconds of wall time, so that a set-up of a millisecond still
// reports a steady median. A traced run sets up once.
const (
	minSetups    = 3
	setupSeconds = 0.5
)

//go:embed expected.json
var expectedJSON []byte

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: place, figure5, score or search")
	seed := fs.Int64("seed", 1, "input seed; 1 reproduces the checked-in suite")
	seconds := fs.Float64("seconds", 10, "wall seconds of passes to measure")
	traceFlag := fs.Int("trace", 0, "1 traces the layers and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	setup, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *traceFlag)
	}
	traced := *traceFlag == 1
	runtime.GOMAXPROCS(runtime.NumCPU())
	expect, err := expected(*name, *seed)
	if err != nil {
		return err
	}

	e := captureEnv()
	fmt.Fprintf(stdout, "env: numcpu=%d gomaxprocs=%d gogc=%s go=%s cpu=%q\n",
		e.NumCPU, e.GOMAXPROCS, e.GOGC, e.GoVersion, e.CPUModel)

	var w workload
	var setupCPU []float64
	for s0 := time.Now(); ; {
		w = nil
		runtime.GC()
		c0 := cpuNanos()
		if w, err = setup(*seed); err != nil {
			return fmt.Errorf("%s set-up: %w", *name, err)
		}
		setupCPU = append(setupCPU, float64(cpuNanos()-c0)/1e9)
		if traced || len(setupCPU) >= minSetups && time.Since(s0).Seconds() >= setupSeconds {
			break
		}
	}
	fmt.Fprintf(stdout, "setup: %d times, median cpu %.6fs\n", len(setupCPU), median(setupCPU))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var passes []passStat
	start := time.Now()
	for i := 0; i < 1 || (traced && i < 2) || time.Since(start).Seconds() < *seconds; i++ {
		var t *tracer
		if traced && i%2 == 1 {
			t = tr
		}
		ps := measure(w, newPass(t, expect))
		passes = append(passes, ps)
		fmt.Fprintf(stdout, "pass %d traced=%t: cpu %.3fs wall %.3fs steal %.2fs alloc %.1fMB gc %d ops %d failed %d\n",
			i+1, ps.traced, ps.cpu, ps.wall, ps.steal, float64(ps.alloc)/1e6, ps.gc, ps.p.attempted, ps.p.failed())
		for _, msg := range ps.p.errs {
			fmt.Fprintln(os.Stderr, "perfbench:", msg)
		}
	}

	res := result{Correct: true}
	for _, ps := range passes {
		res.Attempted += ps.p.attempted
		res.Failed += ps.p.failed()
		if !maps.Equal(ps.p.got, passes[0].p.got) {
			fmt.Fprintln(os.Stderr, "perfbench: pass outputs differ between passes of one run")
			res.Correct = false
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	if traced {
		res.Metrics = layerMetrics(passes, tr.spans, e)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := writeSpans(path, e, passes, tr.spans); err != nil {
			return err
		}
	} else {
		res.Metrics = endToEnd(passes, setupCPU)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// expected returns the checked outputs of seed 1 for a workload, and nil
// for any other seed.
func expected(name string, seed int64) (map[string]float64, error) {
	if seed != 1 {
		return nil, nil
	}
	var all map[string]map[string]float64
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if all[name] == nil {
		return map[string]float64{}, nil
	}
	return all[name], nil
}

// passStat is one measured pass.
type passStat struct {
	p      *pass
	traced bool
	// CPU is process user+sys seconds; steal is the host's stolen
	// CPU-seconds over the same wall interval, across all of its CPUs.
	cpu, wall, steal float64
	alloc            uint64 // bytes allocated
	gc               uint32 // GC cycles completed
	// span is the index of the pass's root span on a traced pass.
	span int
}

// measure runs one pass from a freshly collected heap.
func measure(w workload, p *pass) passStat {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0 := stealSeconds()
	c0, t0 := cpuNanos(), time.Now()
	root := p.begin(passSpan)
	w.run(p)
	p.end(root)
	ps := passStat{
		p: p, traced: p.tr != nil, span: root,
		cpu:  float64(cpuNanos()-c0) / 1e9,
		wall: time.Since(t0).Seconds(),
	}
	ps.steal = stealSeconds() - steal0
	runtime.ReadMemStats(&m1)
	ps.alloc = m1.TotalAlloc - m0.TotalAlloc
	ps.gc = m1.NumGC - m0.NumGC
	return ps
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the untraced run's metrics.
func endToEnd(passes []passStat, setupCPU []float64) map[string]metric {
	cpu := collect(passes, func(ps passStat) float64 { return ps.cpu })
	alloc := collect(passes, func(ps passStat) float64 { return float64(ps.alloc) / 1e6 })
	return map[string]metric{
		"setup_s":     {median(setupCPU), "s"},
		"cpu_s":       {median(cpu), "s"},
		"alloc_mb":    {median(alloc), "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// layerMetrics computes the traced run's per-layer metrics. Times are the
// median over traced passes of each layer's self CPU seconds; counts are
// one pass's, which every pass repeats exactly.
func layerMetrics(passes []passStat, spans []span, e env) map[string]metric {
	var traced, untraced []passStat
	for _, ps := range passes {
		if ps.traced {
			traced = append(traced, ps)
		} else {
			untraced = append(untraced, ps)
		}
	}
	selfs := map[string][]float64{}
	var coverage []float64
	for i, ps := range traced {
		hi := len(spans)
		if i+1 < len(traced) {
			hi = traced[i+1].span
		}
		self := selfCPU(spans[ps.span:hi], ps.span)
		for _, name := range layerSpans {
			selfs[name] = append(selfs[name], self[name])
		}
		coverage = append(coverage, 100*(1-self[passSpan]/ps.cpu))
	}
	m := map[string]metric{}
	for _, name := range layerSpans {
		m[name+"_s"] = metric{median(selfs[name]), "s"}
	}
	c := traced[0].p.counts
	rate := func(n int64, layer string) float64 {
		if s := m[layer+"_s"].Value; s > 0 {
			return float64(n) / s
		}
		return 0
	}
	tracedCPU := median(collect(traced, func(ps passStat) float64 { return ps.cpu }))
	untracedCPU := median(collect(untraced, func(ps passStat) float64 { return ps.cpu }))
	alloc := median(collect(untraced, func(ps passStat) float64 { return float64(ps.alloc) }))
	p := traced[0].p
	sampleErr := 0.0
	if p.sampleN > 0 {
		sampleErr = p.sampleErrPP / float64(p.sampleN)
	}
	for k, v := range map[string]metric{
		"trg.events_per_s":                {rate(c["trg.events"], "trg.build"), "1/s"},
		"trg.place_edges":                 {float64(c["trg.place_edges"]), "count"},
		"core.merges":                     {float64(c["core.merges"]), "count"},
		"core.heap_pops":                  {float64(c["core.heap_pops"]), "count"},
		"core.useful_pop_ratio":           {ratio(c["core.merges"], c["core.heap_pops"]), "ratio"},
		"core.miss_pct":                   {100 * ratio(p.misses, p.refs), "%"},
		"core.gap_pct":                    {100 * ratio(p.gapBytes, p.progBytes), "%"},
		"cache.lane_events":               {float64(c["cache.lane_events"]), "count"},
		"cache.dm_lane_events_per_s":      {rate(c["cache.batch_dm.lane_events"], "cache.batch_dm"), "1/s"},
		"cache.lru_lane_events_per_s":     {rate(c["cache.batch_lru.lane_events"], "cache.batch_lru"), "1/s"},
		"cache.fast_event_ratio":          {ratio(c["cache.fast_events"], c["cache.replay_events"]), "ratio"},
		"sample.replay_fraction":          {ratio(c["sample.events_replayed"], c["sample.trace_events"]), "ratio"},
		"sample.abs_err_pp":               {sampleErr, "pp"},
		"optimal.candidates":              {float64(c["optimal.candidates"]), "count"},
		"optimal.pruned_ratio":            {ratio(c["optimal.pruned"], c["optimal.candidates"]), "ratio"},
		"optimal.abandoned_ratio":         {ratio(c["optimal.abandoned"], c["optimal.evaluated"]), "ratio"},
		"optimal.lane_events_saved_ratio": {ratio(c["optimal.lane_events_saved"], c["optimal.lane_events"]+c["optimal.lane_events_saved"]), "ratio"},
		"optimal.bytes_per_candidate":     {perCount(alloc, c["optimal.candidates"]), "B"},
		"proc.wall_s":                     {median(collect(untraced, func(ps passStat) float64 { return ps.wall })), "s"},
		"proc.steal_s":                    {median(collect(untraced, func(ps passStat) float64 { return ps.steal })), "s"},
		"proc.gc_cycles":                  {median(collect(untraced, func(ps passStat) float64 { return float64(ps.gc) })), "count"},
		"proc.gomaxprocs":                 {float64(e.GOMAXPROCS), "count"},
		"proc.numcpu":                     {float64(e.NumCPU), "count"},
		"proc.trace_overhead_pct":         {100 * (tracedCPU/untracedCPU - 1), "%"},
		"proc.span_coverage_pct":          {median(coverage), "%"},
	} {
		m[k] = v
	}
	return m
}

func collect(passes []passStat, f func(passStat) float64) []float64 {
	out := make([]float64, len(passes))
	for i, ps := range passes {
		out[i] = f(ps)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perCount(x float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// env is the environment every result is read against.
type env struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func captureEnv() env {
	e := env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// stealSeconds is the CPU time the host has stolen from this machine,
// summed over its CPUs, from the steal column of /proc/stat (in USER_HZ,
// 100 per second). It is 0 where /proc/stat is unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// writeSpans writes a traced run's environment, passes and spans as JSON.
func writeSpans(path string, e env, passes []passStat, spans []span) error {
	type passJSON struct {
		Traced    bool    `json:"traced"`
		CPU       float64 `json:"cpu_s"`
		Wall      float64 `json:"wall_s"`
		Steal     float64 `json:"steal_s"`
		Alloc     uint64  `json:"alloc_bytes"`
		GC        uint32  `json:"gc_cycles"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Span      int     `json:"root_span"`
	}
	doc := struct {
		Env    env        `json:"env"`
		Passes []passJSON `json:"passes"`
		Spans  []span     `json:"spans"`
	}{Env: e, Spans: spans}
	for _, ps := range passes {
		root := -1
		if ps.traced {
			root = ps.span
		}
		doc.Passes = append(doc.Passes, passJSON{ps.traced, ps.cpu, ps.wall, ps.steal, ps.alloc, ps.gc, ps.p.attempted, ps.p.failed(), root})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
