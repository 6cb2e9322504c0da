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
	"repro/internal/incr"
	"repro/internal/invariant"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trg"
	"repro/internal/wcg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("layout: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
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
	incrFrom := fs.String("incr-from", "", "previous-profile trace file: place it first, then update incrementally to -trace via delta-driven merge-log replay (gbsc only; result is byte-identical to placing -trace from scratch)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path")
	checkFlag := fs.String("check", "fatal", "layout invariant checking: fatal, warn, or off")
	if err := fs.Parse(args); err != nil {
		return err
	}

	checkMode, err := invariant.ParseMode(*checkFlag)
	if err != nil {
		return err
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
	case *incrFrom != "" && *alg != "gbsc":
		return fmt.Errorf("-incr-from is only supported with -alg gbsc")
	case *incrFrom != "" && *pageAware:
		return fmt.Errorf("-incr-from cannot be combined with -pagelocal")
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
			switch {
			case *incrFrom != "":
				l, err = incrLayout(prog, res, pop, cfg, *incrFrom, *chunk)
			case *pageAware:
				l, err = core.PlacePageAware(prog, res, pop, cfg)
			default:
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
	if err := invariant.Enforce(checkMode, "layout/"+*alg, vs, log.Printf); err != nil {
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

// incrLayout places the old profile's TRG first, then updates it to the
// new profile (newRes, built from -trace) through the incremental engine —
// exercising the delta path end to end while producing a layout
// byte-identical to placing -trace from scratch. The popular set is the
// new profile's: it is the set the final layout must serve, and building
// the old TRG against it keeps the two graphs diffable.
func incrLayout(prog *program.Program, newRes *trg.Result, pop *popular.Set, cfg cache.Config, oldPath string, chunk int) (*program.Layout, error) {
	of, err := os.Open(oldPath)
	if err != nil {
		return nil, err
	}
	oldTr, err := trace.ReadBinary(of)
	if cerr := of.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := oldTr.Validate(prog); err != nil {
		return nil, fmt.Errorf("-incr-from trace: %w", err)
	}
	oldRes, err := trg.Build(prog, oldTr, trg.Options{
		CacheBytes: cfg.SizeBytes, ChunkSize: chunk, Popular: pop,
	})
	if err != nil {
		return nil, err
	}
	d, err := trg.Diff(oldRes, newRes)
	if err != nil {
		return nil, err
	}
	eng, err := incr.New(prog, oldRes, pop, cfg)
	if err != nil {
		return nil, err
	}
	l, err := eng.Update(d)
	if err != nil {
		return nil, err
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "layout: incremental update reused %d merges, replayed %d (%d snapshots)\n",
		st.MergesReused, st.MergesReplayed, st.Snapshots)
	return l, nil
}
