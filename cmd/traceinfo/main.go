// Command traceinfo summarizes a trace: length, reference volume, the
// hottest procedures, the popularity classification the placement
// algorithms would use, and the average temporal working set (the Q
// statistic of Table 1).
//
// Usage:
//
//	traceinfo -prog perl.prog -trace perl-train.trace [-top 15] [-cache 8192]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/graph"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trg"
)

// errUsage marks a flag-parse error. The FlagSet has already printed it
// with the usage, so main exits without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceinfo: ")
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

// run parses args and writes the trace summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	progPath := fs.String("prog", "", "program description file (required)")
	tracePath := fs.String("trace", "", "binary trace file (required)")
	top := fs.Int("top", 15, "how many of the hottest procedures to list")
	cacheBytes := fs.Int("cache", 8192, "cache size for the Q statistic")
	lineBytes := fs.Int("line", 32, "cache line size in bytes")
	dotPath := fs.String("dot", "", "write TRG_select in Graphviz DOT format to this path")
	dotMin := fs.Int64("dotmin", 1, "omit TRG edges lighter than this from the DOT output")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	if *progPath == "" || *tracePath == "" {
		return fmt.Errorf("-prog and -trace are required")
	}
	switch {
	case *lineBytes <= 0:
		return fmt.Errorf("-line must be positive, got %d", *lineBytes)
	case *cacheBytes <= 0:
		return fmt.Errorf("-cache must be positive, got %d", *cacheBytes)
	case *top < 0:
		return fmt.Errorf("-top must not be negative, got %d", *top)
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

	stats := tr.ComputeStats(prog, *lineBytes)
	pop := popular.Select(prog, tr, popular.Options{})
	res, err := trg.Build(prog, tr, trg.Options{CacheBytes: *cacheBytes, Popular: pop})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "program:            %d procedures, %d bytes\n", prog.NumProcs(), prog.TotalSize())
	fmt.Fprintf(stdout, "activations:        %d\n", stats.Events)
	fmt.Fprintf(stdout, "line references:    %d (%d-byte lines)\n", stats.LineRefs, *lineBytes)
	fmt.Fprintf(stdout, "procedures touched: %d\n", stats.UniqueProcs)
	fmt.Fprintf(stdout, "popular set:        %d procedures, %d bytes\n", pop.Len(), pop.TotalSize(prog))
	fmt.Fprintf(stdout, "avg Q population:   %.1f procedures (bound %dB)\n", res.AvgQProcs, 2**cacheBytes)
	fmt.Fprintf(stdout, "TRG_select:         %d nodes, %d edges\n", res.Select.NumNodes(), res.Select.NumEdges())
	fmt.Fprintf(stdout, "TRG_place:          %d chunks, %d edges\n", res.Place.NumNodes(), res.Place.NumEdges())

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		err = res.Select.WriteDOT(f, "trg_select", func(n graph.NodeID) string {
			return prog.Name(program.ProcID(n))
		}, *dotMin)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "TRG_select DOT:     %s\n", *dotPath)
	}

	type hot struct {
		id program.ProcID
		n  int64
	}
	var hots []hot
	for p, n := range stats.PerProc {
		if n > 0 {
			hots = append(hots, hot{program.ProcID(p), n})
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].n != hots[j].n {
			return hots[i].n > hots[j].n
		}
		return hots[i].id < hots[j].id
	})
	if len(hots) > *top {
		hots = hots[:*top]
	}
	fmt.Fprintf(stdout, "\nhottest procedures:\n")
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "procedure\tactivations\tsize\tpopular")
	for _, h := range hots {
		mark := ""
		if pop.Contains(h.id) {
			mark = "*"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", prog.Name(h.id), h.n, prog.Size(h.id), mark)
	}
	return tw.Flush()
}
