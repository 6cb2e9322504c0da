// Command cachesim simulates the instruction-cache behaviour of a placed
// program over a trace and reports reference, miss, and miss-rate figures.
//
// Usage:
//
//	cachesim -prog perl.prog -layout perl.layout -trace perl-test.trace
//	cachesim -prog perl.prog -trace perl-test.trace          # default layout
//	cachesim -prog perl.prog -trace perl-test.trace -stats report.json
//	cachesim -prog perl.prog -layout a.layout,b.layout -trace perl-test.trace
//
// With a comma-separated -layout list every layout is replayed against the
// same trace: the trace is compiled once and each layout is scored by its
// own walk of the compiled trace through one reused simulator
// (internal/cache BatchSim), so comparing candidate layouts costs one
// trace load and one compilation. Each layout's figures are identical to
// a run with that layout alone. Layouts are labelled by file name without
// extension ("default" for an empty entry), so two layouts whose names
// would share a label are rejected.
//
// -sample replaces the exact replay with the phase-aware sampled estimator
// (internal/sample): one window plan is built from the trace and each
// layout is scored by replaying only the representative windows, printing
// the estimate with its confidence interval. With -stats the estimate is
// recorded under the usual label plus a "<label>/ci" half-width key.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/invariant"
	"repro/internal/program"
	"repro/internal/sample"
	"repro/internal/telemetry"
	"repro/internal/telemetry/report"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cachesim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		log.Fatal(err)
	}
}

// run parses args and writes the simulation report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cachesim", flag.ContinueOnError)
	progPath := fs.String("prog", "", "program description file (required)")
	layoutPath := fs.String("layout", "", "comma-separated layout files (default: link-order layout)")
	tracePath := fs.String("trace", "", "binary trace file (required)")
	cacheBytes := fs.Int("cache", 8192, "cache size in bytes")
	lineBytes := fs.Int("line", 32, "cache line size in bytes")
	assoc := fs.Int("assoc", 1, "set associativity (1 = direct-mapped)")
	classify := fs.Bool("classify", false, "classify misses (cold/capacity/conflict) and attribute them to procedures (slower)")
	top := fs.Int("top", 10, "with -classify, how many worst procedures to list")
	statsPath := fs.String("stats", "", "write a JSON run report to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path")
	checkFlag := fs.String("check", "fatal", "layout invariant checking: fatal, warn, or off")
	sampleFlag := fs.Bool("sample", false, "estimate miss rates from sampled trace windows instead of exact replay (incompatible with -classify)")
	sampleWindows := fs.Int("sample-windows", 0, "sampled windows per trace (0 = default 12)")
	sampleInterval := fs.Int("sample-interval", 0, "sampled window length in events (0 = derive from trace length)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	checkMode, err := invariant.ParseMode(*checkFlag)
	if err != nil {
		return err
	}
	if *progPath == "" || *tracePath == "" {
		return fmt.Errorf("-prog and -trace are required")
	}
	switch {
	case *top < 0:
		return fmt.Errorf("-top must not be negative, got %d", *top)
	case *sampleWindows < 0:
		return fmt.Errorf("-sample-windows must not be negative, got %d", *sampleWindows)
	case *sampleInterval < 0:
		return fmt.Errorf("-sample-interval must not be negative, got %d", *sampleInterval)
	}
	if *sampleFlag && *classify {
		return fmt.Errorf("-sample cannot classify misses; drop one of the flags")
	}
	cfg := cache.Config{SizeBytes: *cacheBytes, LineBytes: *lineBytes, Assoc: *assoc}
	if err := cfg.Validate(); err != nil {
		return err
	}

	// A comma-separated -layout list replays every layout against the same
	// trace; the empty string selects the link-order layout. Labels key
	// the printed sections and the report, so they must be unique.
	layoutPaths := strings.Split(*layoutPath, ",")
	names := make([]string, len(layoutPaths))
	labelled := map[string]string{}
	for i, path := range layoutPaths {
		path = strings.TrimSpace(path)
		layoutPaths[i] = path
		names[i] = "default"
		if path != "" {
			names[i] = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		if prev, dup := labelled[names[i]]; dup {
			return fmt.Errorf("layouts %q and %q share the label %q; rename one", prev, path, names[i])
		}
		labelled[names[i]] = path
	}

	stopProf, err := telemetry.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			log.Printf("profiles: %v", perr)
		}
	}()

	pf, err := os.Open(*progPath)
	if err != nil {
		return err
	}
	prog, err := program.ReadDescription(pf)
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	layouts := make([]*program.Layout, len(layoutPaths))
	for i, path := range layoutPaths {
		if path == "" {
			layouts[i] = program.DefaultLayout(prog)
			continue
		}
		lf, err := os.Open(path)
		if err != nil {
			return err
		}
		layout, err := program.ReadLayout(lf, prog)
		if cerr := lf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := layout.Validate(); err != nil {
			return err
		}
		layouts[i] = layout
	}

	tf, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	tr, err := trace.ReadBinary(tf)
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := tr.Validate(prog); err != nil {
		return err
	}

	// Universal invariants only: an externally supplied layout carries no
	// popularity or alignment claims, so gaps are legal — but duplicates,
	// overlaps, and byte loss never are.
	for i, layout := range layouts {
		vs := invariant.CheckLayout(prog, layout, invariant.LayoutOptions{Cache: cfg})
		if err := invariant.Enforce(checkMode, "cachesim/layout/"+names[i], vs, log.Printf); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "cache: %dB, %dB lines, %d-way\n", cfg.SizeBytes, cfg.LineBytes, cfg.Assoc)

	var rep *report.Report
	var sh *telemetry.Shard
	if *statsPath != "" {
		reg := telemetry.NewRegistry()
		sh = reg.Shard()
		rep = report.New("cachesim")
		rep.Params["prog"] = *progPath
		rep.Params["layout"] = *layoutPath
		rep.Params["trace"] = *tracePath
		rep.Params["cache"] = strconv.Itoa(*cacheBytes)
		rep.Params["line"] = strconv.Itoa(*lineBytes)
		rep.Params["assoc"] = strconv.Itoa(*assoc)
		rep.Params["sample"] = strconv.FormatBool(*sampleFlag)
		defer func() {
			rep.AddSnapshot(reg.Snapshot())
			rep.CaptureAlloc()
			if werr := writeReport(*statsPath, rep); werr != nil {
				log.Printf("stats: %v", werr)
			}
		}()
	}
	bench := strings.TrimSuffix(filepath.Base(*progPath), filepath.Ext(*progPath))

	// The trace is compiled once and shared by every layout below.
	ct := cache.CompileTrace(prog, tr)
	multi := len(layouts) > 1
	// The report labels the single-layout run "sim" (the historical name);
	// multi-layout runs are labelled per layout.
	label := func(i int) string {
		if multi {
			return names[i]
		}
		return "sim"
	}
	section := func(i int) {
		if multi {
			fmt.Fprintf(stdout, "\n== %s ==\n", names[i])
		}
	}

	if *classify {
		for i, layout := range layouts {
			section(i)
			start := time.Now()
			cs, rs, err := cache.RunCompiledClassified(cfg, ct, layout)
			if err != nil {
				return err
			}
			sh.AddDuration("cachesim/sim_wall", time.Since(start))
			fmt.Fprintf(stdout, "refs:      %d\n", cs.Refs)
			fmt.Fprintf(stdout, "misses:    %d (cold %d, capacity %d, conflict %d)\n",
				cs.Misses, cs.Cold, cs.Capacity, cs.Conflict)
			fmt.Fprintf(stdout, "miss rate: %.4f%%\n", 100*cs.MissRate())
			fmt.Fprintf(stdout, "\nprocedures with the most misses:\n")
			for _, p := range cs.TopMissProcs(*top) {
				fmt.Fprintf(stdout, "  %-30s %10d\n", prog.Name(p), cs.PerProc[p])
			}
			// The counters take the plain path's Stats figures (the
			// three-C Cold and Conflict fields shadow Stats'), so the two
			// reports of one run agree; the three-C split is printed only.
			sh.Add("cache/refs", cs.Refs)
			sh.Add("cache/misses", cs.Misses)
			sh.Add("cache/cold_misses", cs.Stats.Cold)
			sh.Add("cache/conflict_misses", cs.Stats.Conflict())
			sh.Add("cache/replay_events", rs.Events)
			sh.Add("cache/replay_fast_events", rs.FastEvents)
			sh.Add("cache/replay_fallback_events", rs.FallbackEvents)
			sh.Add("cache/replay_collapsed_repeats", rs.CollapsedRepeats)
			sh.Add("cache/replay_collapsed_refs", rs.CollapsedRefs)
			if rep != nil {
				rep.AddMissRate(bench, label(i), cs.MissRate())
			}
		}
		return nil
	}

	var ev *sample.Evaluator
	if *sampleFlag {
		plan, err := sample.NewPlan(prog, tr, cfg.LineBytes, sample.Options{
			Windows:  *sampleWindows,
			Interval: *sampleInterval,
		})
		if err != nil {
			return err
		}
		ev = sample.NewEvaluator(ct, plan)
		fmt.Fprintf(stdout, "sampling: %d of %d windows (interval %d events, warm-up %d), replaying %.1f%% of events\n",
			len(plan.Windows), plan.Partitions, plan.Interval, plan.Warmup, 100*plan.ReplayFraction())
	}
	// Layouts score one after another through one simulator, each walking
	// the compiled trace (or every sampled window).
	bs, err := cache.NewBatchSim(cfg)
	if err != nil {
		return err
	}
	var stats []cache.Stats
	var ests []sample.Estimate
	start := time.Now()
	if ev != nil {
		if ests, err = ev.MissRateBatch(bs, layouts); err != nil {
			return err
		}
	} else {
		tables := make([]*cache.CompiledLayout, len(layouts))
		for k, layout := range layouts {
			if tables[k], err = cache.CompileLayout(cfg, ct, layout); err != nil {
				return err
			}
		}
		res, err := bs.Run(ct, tables, cache.BatchOptions{})
		if err != nil {
			return err
		}
		stats = res.Stats
	}
	sh.AddDuration("cachesim/sim_wall", time.Since(start))
	d := bs.Batch()
	sh.Add("cache/batch_lanes", int64(len(layouts)))
	sh.Add("cache/batch_abandoned_lanes", d.AbandonedLanes)
	sh.Add("cache/batch_lane_events", d.LaneEvents)
	sh.Add("cache/batch_lane_events_saved", d.LaneEventsSaved)

	for i := range layouts {
		section(i)
		if ev != nil {
			est := ests[i]
			lo, hi := est.Interval()
			fmt.Fprintf(stdout, "refs sampled: %d (events replayed %d)\n", est.RefsReplayed, est.EventsReplayed)
			fmt.Fprintf(stdout, "miss rate:    %.4f%% ±%.4f%% [%.4f%%, %.4f%%]\n",
				100*est.MissRate, 100*est.CIHalf, 100*lo, 100*hi)
			sh.Add("sample/windows", int64(est.Windows))
			sh.Add("sample/events_replayed", est.EventsReplayed)
			sh.Add("sample/refs_replayed", est.RefsReplayed)
			if rep != nil {
				rep.AddMissRate(bench, label(i), est.MissRate)
				rep.AddMissRate(bench, label(i)+"/ci", est.CIHalf)
			}
			continue
		}
		st := stats[i]
		fmt.Fprintf(stdout, "refs:      %d\n", st.Refs)
		fmt.Fprintf(stdout, "misses:    %d (cold %d, conflict+capacity %d)\n", st.Misses, st.Cold, st.Conflict())
		fmt.Fprintf(stdout, "miss rate: %.4f%%\n", 100*st.MissRate())
		sh.Add("cache/refs", st.Refs)
		sh.Add("cache/misses", st.Misses)
		sh.Add("cache/cold_misses", st.Cold)
		sh.Add("cache/conflict_misses", st.Conflict())
		if rep != nil {
			rep.AddMissRate(bench, label(i), st.MissRate())
		}
	}
	return nil
}

// writeReport writes rep to path, propagating Close errors so a truncated
// report never passes silently.
func writeReport(path string, rep *report.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = report.Write(f, rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
