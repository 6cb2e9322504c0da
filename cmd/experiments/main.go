// Command experiments regenerates the paper's tables and figures on the
// synthetic benchmark suite.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1,figure5 -scale 1.0 -runs 40
//	experiments -run figure6 -csv fig6.csv   # or -run figure5: its CDF points
//	experiments -run all -parallel 1   # serial; output identical to parallel
//	experiments -run all -stats report.json -cpuprofile cpu.pprof
//
// Available experiments, in the order -run all runs them: table1, figure5,
// figure6, padding, sameinput, setassoc, ablations, pagelocal, conflicts,
// splitting, sweep, optimality, blockreorder, headroom, sampling. A -run
// name outside this list (or "all"), or a -bench name outside the suite,
// fails the run before anything is printed or written. So does -csv when
// both figure5 and figure6 are selected: each writes its own CSV schema.
// Every miss rate comes from exact compiled replay; the sampling
// experiment measures the sampled estimator against it.
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
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/telemetry/report"
	"repro/internal/tracegen"
)

// errUsage marks a flag-parse error. The FlagSet has already printed it
// with the usage, so main exits without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
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

// run parses args and writes the selected experiments' tables to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	run := fs.String("run", "all", "comma-separated experiments to run")
	scale := fs.Float64("scale", 1.0, "trace length scale factor (must be positive)")
	runs := fs.Int("runs", 40, "perturbed runs per algorithm (figure 5, must be positive)")
	seed := fs.Int64("seed", 1, "randomization seed")
	benches := fs.String("bench", "", "comma-separated benchmark filter (default all six)")
	csvPath := fs.String("csv", "", "also write the CSV points of figure 5 or figure 6, whichever is selected, to this path")
	parallel := fs.Int("parallel", 0, "experiment worker count (0 = one per CPU, 1 = serial); output is identical at every setting")
	statsPath := fs.String("stats", "", "write a JSON run report to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	// tracegen.Suite reads a non-positive scale as full scale, and an
	// infinite or huge one overflows its event counts; reject any scale
	// it cannot honour rather than silently running another.
	if err := tracegen.CheckScale(*scale); err != nil {
		return fmt.Errorf("-scale: %w", err)
	}
	// Options.Runs reads 0 as the paper's 40 and Options.Parallel reads a
	// negative count as serial; a value the user typed must be taken
	// literally or rejected.
	switch {
	case *runs < 1:
		return fmt.Errorf("-runs must be positive, got %d", *runs)
	case *parallel < 0:
		return fmt.Errorf("-parallel must not be negative, got %d", *parallel)
	}

	opts := experiments.Options{Scale: *scale, Runs: *runs, Seed: *seed, Parallel: *parallel}
	if *benches != "" {
		for _, name := range strings.Split(*benches, ",") {
			opts.Benchmarks = append(opts.Benchmarks, strings.TrimSpace(name))
		}
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
	}

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
	}

	// Every -run entry must name a step (or "all") before anything runs,
	// so a typo or a retired experiment cannot silently drop out of a run.
	names := make([]string, 0, len(steps)+1)
	for _, s := range steps {
		names = append(names, s.name)
	}
	names = append(names, "all")
	want := map[string]bool{}
	var unknown []string
	for _, name := range strings.Split(*run, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(names, name) {
			unknown = append(unknown, strconv.Quote(name))
		}
		want[name] = true
	}
	if len(unknown) > 0 {
		return fmt.Errorf("-run: unknown experiments %s (valid: %s)", strings.Join(unknown, ", "), strings.Join(names, ", "))
	}
	all := want["all"]
	// Likewise every -bench entry must name a suite benchmark, including
	// for the single-benchmark steps (padding, sameinput).
	if err := opts.CheckBenchmarks(); err != nil {
		return fmt.Errorf("-bench: %w", err)
	}

	// figure5 and figure6 would each overwrite -csv with its own schema,
	// leaving only the later one's points; without either, nothing writes
	// it.
	if fig5, fig6 := all || want["figure5"], all || want["figure6"]; *csvPath != "" && fig5 == fig6 {
		return fmt.Errorf("-csv: only figure5 and figure6 write CSV points, each in its own schema; select exactly one of them")
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
