// Command experiments regenerates the paper's tables and figures on the
// synthetic benchmark suite.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1,figure5 -scale 1.0 -runs 40
//	experiments -run figure6 -csv fig6.csv
//	experiments -run all -parallel 1   # serial; output identical to parallel
//	experiments -run all -shards 8     # sharded TRG builds; output identical
//	experiments -run all -stats report.json -cpuprofile cpu.pprof
//
// Available experiments: table1, figure5, figure6, padding, sameinput,
// setassoc, ablations, sampling, staticbounds, driftreplace, all.
//
// staticbounds compares the static must/may interval (internal/staticcache)
// against the exact replay of every (benchmark, algorithm) layout; under
// -check fatal an interval that fails to bracket its exact run aborts the
// run — the smoke run's soundness gate.
//
// -sample switches the Figure 5 grid from exact compiled replay to the
// phase-aware sampled estimator (internal/sample); every reported miss
// rate becomes an estimate whose confidence half-width lands in the run
// report under the "<alg>/ci" key, and cmd/benchdiff -within-ci gates a
// sampled report against an exact one cell by cell. The sampling
// experiment itself always measures both paths and is unaffected by the
// flag.
//
// With -stats, the run emits a versioned JSON run report (see
// internal/telemetry/report) holding per-benchmark miss rates, pipeline
// counters and histograms (all identical at every -parallel setting), and
// wall/CPU timings. cmd/benchdiff compares two such reports.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/telemetry"
	"repro/internal/telemetry/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		log.Fatal(err)
	}
}

// run parses args and writes the selected experiments' tables to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	run := fs.String("run", "all", "comma-separated experiments to run")
	scale := fs.Float64("scale", 1.0, "trace length scale factor (must be positive)")
	runs := fs.Int("runs", 40, "perturbed runs per algorithm (figure 5)")
	seed := fs.Int64("seed", 1, "randomization seed")
	benches := fs.String("bench", "", "comma-separated benchmark filter (default all six)")
	csvPath := fs.String("csv", "", "also write figure 6 points as CSV to this path")
	parallel := fs.Int("parallel", 0, "experiment worker count (0 = one per CPU, 1 = serial); output is identical at every setting")
	shards := fs.Int("shards", 0, "TRG build shards per benchmark (0 or 1 = serial builder); output is identical at every setting")
	statsPath := fs.String("stats", "", "write a JSON run report to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path")
	checkFlag := fs.String("check", "fatal", "layout/TRG invariant checking: fatal, warn, or off")
	sampleFlag := fs.Bool("sample", false, "score figure 5 layouts with the phase-aware sampled estimator instead of exact replay; estimates carry <alg>/ci half-widths in the run report")
	sampleWindows := fs.Int("sample-windows", 0, "sampled windows per trace (0 = default 12)")
	sampleInterval := fs.Int("sample-interval", 0, "sampled window length in events (0 = derive from trace length)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Suite generation reads a non-positive scale as full scale; reject it
	// rather than silently running the full-length workload. The negated
	// form also rejects NaN.
	if !(*scale > 0) {
		return fmt.Errorf("-scale must be positive, got %g", *scale)
	}

	checkMode, err := invariant.ParseMode(*checkFlag)
	if err != nil {
		return err
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

	opts := experiments.Options{
		Scale: *scale, Runs: *runs, Seed: *seed, Parallel: *parallel, Shards: *shards, Check: checkMode,
		Sample: *sampleFlag, SampleWindows: *sampleWindows, SampleInterval: *sampleInterval,
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}

	// Telemetry is collected only when a report is requested; a nil
	// registry makes every recording call a no-op.
	var rep *report.Report
	if *statsPath != "" {
		opts.Telemetry = telemetry.NewRegistry()
		rep = report.New("experiments")
		rep.Params["run"] = *run
		rep.Params["scale"] = strconv.FormatFloat(*scale, 'g', -1, 64)
		rep.Params["runs"] = strconv.Itoa(*runs)
		rep.Params["seed"] = strconv.FormatInt(*seed, 10)
		rep.Params["bench"] = *benches
		rep.Params["parallel"] = strconv.Itoa(*parallel)
		rep.Params["shards"] = strconv.Itoa(*shards)
		rep.Params["sample"] = strconv.FormatBool(*sampleFlag)
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]

	// render adapts the common "result with a Render method" experiment
	// shape to a step function.
	render := func(r interface{ Render(w io.Writer) error }, err error) (any, error) {
		if err != nil {
			return nil, err
		}
		return r, r.Render(stdout)
	}

	// Each step returns its typed result so the run report can pull
	// machine-gateable numbers out of it; results without such numbers
	// pass through experiments.Record as a no-op.
	type step struct {
		name string
		fn   func() (any, error)
	}
	steps := []step{
		{"table1", func() (any, error) {
			r, err := experiments.Table1(opts)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(stdout, "== Table 1: benchmark details ==")
			return r, r.Render(stdout)
		}},
		{"figure5", func() (any, error) {
			r, err := experiments.Figure5(opts)
			if err != nil {
				return nil, err
			}
			if err := r.Render(stdout); err != nil {
				return nil, err
			}
			if *csvPath != "" {
				if err := writeFile(*csvPath, r.WriteCSV); err != nil {
					return nil, err
				}
			}
			return r, nil
		}},
		{"figure6", func() (any, error) {
			r, err := experiments.Figure6(opts)
			if err != nil {
				return nil, err
			}
			if err := r.Render(stdout); err != nil {
				return nil, err
			}
			if *csvPath != "" {
				err := writeFile(*csvPath, func(f io.Writer) error {
					if _, err := fmt.Fprintln(f, "missrate,trg_metric,wcg_metric"); err != nil {
						return err
					}
					for _, p := range r.Points {
						if _, err := fmt.Fprintf(f, "%.6f,%d,%d\n", p.MissRate, p.TRGMetric, p.WCGMetric); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
			return r, nil
		}},
		{"padding", func() (any, error) { return render(experiments.Padding(opts)) }},
		{"sameinput", func() (any, error) { return render(experiments.SameInput(opts)) }},
		{"setassoc", func() (any, error) { return render(experiments.SetAssoc(opts)) }},
		{"ablations", func() (any, error) { return render(experiments.Ablations(opts)) }},
		{"pagelocal", func() (any, error) { return render(experiments.PageLocality(opts)) }},
		{"conflicts", func() (any, error) { return render(experiments.Conflicts(opts)) }},
		{"splitting", func() (any, error) { return render(experiments.Splitting(opts)) }},
		{"sweep", func() (any, error) { return render(experiments.CacheSweep(opts)) }},
		{"optimality", func() (any, error) { return render(experiments.Optimality(opts)) }},
		{"blockreorder", func() (any, error) { return render(experiments.BlockReorder(opts)) }},
		{"headroom", func() (any, error) { return render(experiments.Headroom(opts)) }},
		{"sampling", func() (any, error) { return render(experiments.Sampling(opts)) }},
		{"staticbounds", func() (any, error) { return render(experiments.StaticBounds(opts)) }},
		{"driftreplace", func() (any, error) { return render(experiments.DriftReplace(opts)) }},
	}

	ran := 0
	var stepErr error
	sh := opts.Telemetry.Shard()
	for _, s := range steps {
		if !all && !want[s.name] {
			continue
		}
		start := time.Now()
		cpu0 := telemetry.CPUSeconds()
		result, err := s.fn()
		sh.AddDuration("exp/"+s.name+"/wall", time.Since(start))
		sh.AddDuration("exp/"+s.name+"/cpu", time.Duration((telemetry.CPUSeconds()-cpu0)*1e9))
		if err != nil {
			stepErr = fmt.Errorf("%s: %w", s.name, err)
			break
		}
		experiments.Record(rep, result)
		fmt.Fprintln(stdout)
		ran++
	}
	if stepErr == nil && ran == 0 {
		stepErr = fmt.Errorf("no experiments matched %q", *run)
	}

	// The report is written even when a step failed — a partial report
	// with failed=... beats a truncated or missing file when CI digs
	// through artifacts.
	if rep != nil {
		if stepErr != nil {
			rep.Params["failed"] = stepErr.Error()
		}
		rep.AddSnapshot(opts.Telemetry.Snapshot())
		rep.CaptureAlloc()
		if err := writeFile(*statsPath, func(f io.Writer) error { return report.Write(f, rep) }); err != nil {
			if stepErr != nil {
				return fmt.Errorf("%w (also failed writing %s: %v)", stepErr, *statsPath, err)
			}
			return err
		}
	}
	return stepErr
}

// writeFile creates path, runs fill, and returns the first error among
// fill, Sync-less Close, and creation — so a full disk or closed pipe is
// reported instead of leaving a silently truncated file behind.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
