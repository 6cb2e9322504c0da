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
	"repro/internal/telemetry"
	"repro/internal/telemetry/report"
	"repro/internal/trace"
)

// errUsage marks a flag-parse error. The FlagSet has already printed it
// with the usage, so main exits without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("cachesim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		switch {
		case errors.Is(err, flag.ErrHelp):
			os.Exit(0)
		case errors.Is(err, errUsage):
			os.Exit(1)
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
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	if *progPath == "" || *tracePath == "" {
		return fmt.Errorf("-prog and -trace are required")
	}
	if *top < 0 {
		return fmt.Errorf("-top must not be negative, got %d", *top)
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
		if err := invariant.Error("cachesim/layout/"+names[i], vs); err != nil {
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

	// Layouts score one after another through one simulator, each walking
	// the compiled trace.
	bs, err := cache.NewBatchSim(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
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
	sh.AddDuration("cachesim/sim_wall", time.Since(start))
	d := bs.Batch()
	sh.Add("cache/batch_lanes", d.Lanes)
	sh.Add("cache/batch_abandoned_lanes", d.AbandonedLanes)
	sh.Add("cache/batch_lane_events", d.LaneEvents)
	sh.Add("cache/batch_lane_events_saved", d.LaneEventsSaved)

	for i, st := range res.Stats {
		section(i)
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
