// Command benchdiff compares two run reports produced by the -stats flag
// of cmd/experiments (or cmd/cachesim, cmd/tracegen) and exits nonzero on
// drift: any miss-rate, deterministic counter or histogram that differs at
// all, or a benchmark or miss-rate cell present in only one report. The
// pipelines are deterministic, so the comparison is exact; timers and
// allocation statistics depend on the machine and are never compared.
//
// This is the artifact gate the CI pipeline runs between a baseline report
// and a candidate report:
//
//	benchdiff run-report.json run-report-serial.json
//	benchdiff -v BENCH_main.json BENCH_pr.json   # also print notes
//
// Exit status: 0 no drift (or -h), 1 drift, 2 usage or I/O error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/telemetry/report"
)

// errDrift marks the "comparison ran fine, the reports disagree" outcome,
// which exits 1; every other error is a usage or I/O failure and exits 2.
var errDrift = errors.New("reports drifted")

// errUsage marks a flag-parse error. The FlagSet has already printed it
// with the usage, so main exits without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		switch {
		case errors.Is(err, flag.ErrHelp):
			os.Exit(0)
		case errors.Is(err, errDrift):
			os.Exit(1)
		case errors.Is(err, errUsage):
			os.Exit(2)
		}
		log.Print(err)
		os.Exit(2)
	}
}

// run parses args, compares the two named reports and prints every drift
// finding to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "also print informational notes, not just drift")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: benchdiff [flags] old.json new.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return errors.New("expected exactly two report files")
	}

	oldRep, err := readReport(fs.Arg(0))
	if err != nil {
		return err
	}
	newRep, err := readReport(fs.Arg(1))
	if err != nil {
		return err
	}

	// Every drift finding is printed before the verdict: one run names all
	// drifting keys and aspects, rather than surfacing them one at a time.
	drift := 0
	for _, f := range report.Diff(oldRep, newRep) {
		if f.Drift {
			drift++
		}
		if f.Drift || *verbose {
			fmt.Fprintln(stdout, f)
		}
	}
	if drift > 0 {
		fmt.Fprintf(stdout, "benchdiff: %d drift finding(s) between %s and %s\n", drift, fs.Arg(0), fs.Arg(1))
		return errDrift
	}
	fmt.Fprintf(stdout, "benchdiff: no drift between %s and %s\n", fs.Arg(0), fs.Arg(1))
	return nil
}

func readReport(path string) (*report.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := report.Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
