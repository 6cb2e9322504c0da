// Command layout computes a procedure placement from a program description
// and a profiling trace, writing the resulting layout as "name address"
// lines.
//
// Usage:
//
//	layout -prog perl.prog -trace perl-train.trace -alg gbsc -out perl.layout
//
// Algorithms: gbsc (the paper's temporal-ordering placement), gbsc2 (the
// Section 6 two-way set-associative variant), ph (Pettis & Hansen), hkc
// (cache-line coloring), default (link order).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trg"
	"repro/internal/wcg"
)

// errUsage marks a flag-parse error. The FlagSet has already printed it
// with the usage, so main exits without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("layout: ")
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

// run parses args, places the program, and writes the layout to -out, or
// to stdout when -out is empty. Progress lines go to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("layout", flag.ContinueOnError)
	progPath := fs.String("prog", "", "program description file (required)")
	tracePath := fs.String("trace", "", "binary trace file (required except for -alg default)")
	alg := fs.String("alg", "gbsc", "placement algorithm: gbsc, gbsc2, ph, hkc, default")
	out := fs.String("out", "", "output layout file (default stdout)")
	format := fs.String("format", "layout", "output format: layout (name address), order (symbol-ordering file), ldscript (GNU ld SECTIONS fragment)")
	cacheBytes := fs.Int("cache", 8192, "cache size in bytes")
	lineBytes := fs.Int("line", 32, "cache line size in bytes")
	chunk := fs.Int("chunk", 256, "TRG_place chunk size in bytes (must be positive)")
	pageAware := fs.Bool("pagelocal", false, "use the page-locality linearization (gbsc only)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	if *progPath == "" {
		return fmt.Errorf("-prog is required")
	}
	// These flag checks run before any input is read or -out is created,
	// so a bad flag never leaves a truncated output file behind. A zero
	// -chunk would otherwise fall back to the 256-byte default.
	var emit func(l *program.Layout, w io.Writer) error
	switch *format {
	case "layout":
		emit = (*program.Layout).WriteLayout
	case "order":
		emit = (*program.Layout).WriteOrder
	case "ldscript":
		emit = func(l *program.Layout, w io.Writer) error { return l.WriteLinkerScript(w, 0x400000) }
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	switch {
	case *chunk <= 0:
		return fmt.Errorf("-chunk must be positive, got %d", *chunk)
	case *pageAware && *alg != "gbsc":
		return fmt.Errorf("-pagelocal is only supported with -alg gbsc")
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

	var tr *trace.Trace
	if *tracePath != "" {
		tf, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		tr, err = trace.ReadBinary(tf)
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := tr.Validate(prog); err != nil {
			return err
		}
	} else if *alg != "default" {
		return fmt.Errorf("-trace is required for -alg %s", *alg)
	}

	cfg := cache.Config{SizeBytes: *cacheBytes, LineBytes: *lineBytes, Assoc: 1}
	if *alg == "gbsc2" {
		cfg.Assoc = 2
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	var l *program.Layout
	// Each algorithm class claims different structural guarantees, checked
	// after the fact: packed layouts may not have gaps, the GBSC family must
	// line-align its popular procedures, HKC promises neither.
	checkOpts := invariant.LayoutOptions{Cache: cfg}
	switch *alg {
	case "default":
		l = program.DefaultLayout(prog)
		checkOpts.RequirePacked = true
	case "ph":
		l, err = baseline.PHLayout(prog, wcg.Build(tr))
		checkOpts.RequirePacked = true
	case "hkc":
		pop := popular.Select(prog, tr, popular.Options{})
		l, err = baseline.HKC(prog, wcg.BuildFiltered(tr, pop.Contains), pop, cfg)
		checkOpts.Popular = pop
	case "gbsc":
		pop := popular.Select(prog, tr, popular.Options{})
		var res *trg.Result
		res, err = trg.Build(prog, tr, trg.Options{
			CacheBytes: cfg.SizeBytes, ChunkSize: *chunk, Popular: pop,
		})
		if err == nil {
			if *pageAware {
				l, err = core.PlacePageAware(prog, res, pop, cfg)
			} else {
				l, err = core.Place(prog, res, pop, cfg)
			}
			checkOpts.Popular = pop
			checkOpts.Chunker = res.Chunker
			checkOpts.RequireAlignedPopular = true
		}
	case "gbsc2":
		pop := popular.Select(prog, tr, popular.Options{})
		var res *trg.Result
		var db *trg.PairDB
		res, db, err = trg.BuildPairs(prog, tr, trg.Options{
			CacheBytes: cfg.SizeBytes, ChunkSize: *chunk, Popular: pop,
		})
		if err == nil {
			l, err = core.PlaceAssoc(prog, res, db, pop, cfg)
			checkOpts.Popular = pop
			checkOpts.Chunker = res.Chunker
			// Section 6 aligns popular procedures to set boundaries, so the
			// placement period is the set count.
			checkOpts.Period = cfg.NumSets()
			checkOpts.RequireAlignedPopular = true
		}
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	if err != nil {
		return err
	}
	if err := l.Validate(); err != nil {
		return fmt.Errorf("internal error: produced invalid layout: %w", err)
	}
	vs := invariant.CheckLayout(prog, l, checkOpts)
	if err := invariant.Error("layout/"+*alg, vs); err != nil {
		return err
	}

	if *out == "" {
		err = emit(l, stdout)
	} else {
		var f *os.File
		if f, err = os.Create(*out); err != nil {
			return err
		}
		err = emit(l, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "layout: %s over %d procedures, extent %d bytes\n",
		*alg, prog.NumProcs(), l.Extent())
	return nil
}
