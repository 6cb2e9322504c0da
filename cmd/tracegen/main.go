// Command tracegen generates a synthetic benchmark program and execution
// trace from the Table 1 suite and writes them to disk: the program as a
// text description (name and size per line) and the trace in the binary
// interchange format.
//
// Usage:
//
//	tracegen -bench perl -input train -scale 1.0 -out perl.trace -prog perl.prog
//	tracegen -bench perl -input train -stats report.json
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"

	"repro/internal/telemetry"
	"repro/internal/telemetry/report"
	"repro/internal/tracegen"
)

// errUsage marks a flag-parse error. The FlagSet has already printed it
// with the usage, so main exits without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
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

// run parses args, writes the trace and program files, and reports on
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	benchName := fs.String("bench", "perl", "benchmark name (gcc, go, ghostscript, m88ksim, perl, vortex)")
	input := fs.String("input", "train", "which input to run: train or test")
	scale := fs.Float64("scale", 1.0, "trace length scale factor (must be positive)")
	outTrace := fs.String("out", "", "output trace file (binary format); default <bench>-<input>.trace")
	outProg := fs.String("prog", "", "output program description; default <bench>.prog")
	statsPath := fs.String("stats", "", "write a JSON run report to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	// tracegen.Suite reads a non-positive scale as full scale; reject it
	// rather than silently writing a full-length trace. The negated form
	// also rejects NaN.
	if !(*scale > 0) {
		return fmt.Errorf("-scale must be positive, got %g", *scale)
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

	pair := tracegen.Lookup(tracegen.Suite(*scale), *benchName)
	if pair == nil {
		return fmt.Errorf("unknown benchmark %q", *benchName)
	}
	in := pair.Train
	switch *input {
	case "train":
	case "test":
		in = pair.Test
	default:
		return fmt.Errorf("unknown input %q (want train or test)", *input)
	}

	if *outTrace == "" {
		*outTrace = fmt.Sprintf("%s-%s.trace", *benchName, *input)
	}
	if *outProg == "" {
		*outProg = fmt.Sprintf("%s.prog", *benchName)
	}

	var rep *report.Report
	var sh *telemetry.Shard
	if *statsPath != "" {
		reg := telemetry.NewRegistry()
		sh = reg.Shard()
		rep = report.New("tracegen")
		rep.Params["bench"] = *benchName
		rep.Params["input"] = *input
		rep.Params["scale"] = strconv.FormatFloat(*scale, 'g', -1, 64)
		defer func() {
			rep.AddSnapshot(reg.Snapshot())
			rep.CaptureAlloc()
			if werr := writeReport(*statsPath, rep); werr != nil {
				log.Printf("stats: %v", werr)
			}
		}()
	}

	tr := tracegen.Generate(pair.Bench, in, sh)

	if err := writeTo(*outTrace, tr.WriteBinary); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	err = writeTo(*outProg, func(f io.Writer) error {
		w := bufio.NewWriter(f)
		fmt.Fprintf(w, "# %s: %d procedures, %d bytes\n",
			pair.Bench.Name, pair.Bench.Prog.NumProcs(), pair.Bench.Prog.TotalSize())
		for _, p := range pair.Bench.Prog.Procs {
			fmt.Fprintf(w, "%s %d\n", p.Name, p.Size)
		}
		return w.Flush()
	})
	if err != nil {
		return fmt.Errorf("writing program: %w", err)
	}

	stats := tr.ComputeStats(pair.Bench.Prog, 32)
	sh.Add("tracegen/line_refs", stats.LineRefs)
	sh.Add("tracegen/unique_procs", int64(stats.UniqueProcs))
	fmt.Fprintf(stdout, "%s/%s: %d events, %d line refs, %d procedures touched → %s, %s\n",
		*benchName, in.Name, stats.Events, stats.LineRefs, stats.UniqueProcs, *outTrace, *outProg)
	return nil
}

// writeTo creates path, runs fill, and returns the first of fill's error
// and Close's — so truncated output is an error, not a surprise.
func writeTo(path string, fill func(io.Writer) error) error {
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

// writeReport writes rep to path, propagating Close errors.
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
