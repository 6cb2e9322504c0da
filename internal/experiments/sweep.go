package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/trg"
)

// SweepCell is one (benchmark, cache geometry) measurement.
type SweepCell struct {
	Name    string
	Cache   cache.Config
	Default float64
	PH      float64
	GBSC    float64
}

// SweepResult holds the grid.
type SweepResult struct {
	Cells []SweepCell
}

// CacheSweep checks the paper's robustness claim — "We also experimented
// with smaller cache sizes and obtained similar results" — by re-running
// default/PH/GBSC across cache sizes (4, 8, 16 KB) and associativities
// (1- and 2-way, same capacity). Placements are retrained per geometry,
// as they would be in practice.
func CacheSweep(opts Options) (*SweepResult, error) {
	opts.setDefaults()
	geometries := []cache.Config{
		{SizeBytes: 4096, LineBytes: 32, Assoc: 1},
		{SizeBytes: 8192, LineBytes: 32, Assoc: 1},
		{SizeBytes: 16384, LineBytes: 32, Assoc: 1},
		{SizeBytes: 8192, LineBytes: 32, Assoc: 2},
	}
	pairs, err := opts.suite()
	if err != nil {
		return nil, err
	}
	// Every (benchmark, geometry) cell retrains from scratch, so the grid
	// is fully independent and shards flat across workers.
	cells := make([]SweepCell, len(pairs)*len(geometries))
	err = forEach(opts.parallelism(), len(cells), func(i int) error {
		sh := opts.Telemetry.Shard()
		pair, cfg := pairs[i/len(geometries)], geometries[i%len(geometries)]
		b, err := prepare(pair, cfg, sh, opts.Check, nil)
		if err != nil {
			return err
		}
		prog := pair.Bench.Prog
		cell := SweepCell{Name: pair.Bench.Name, Cache: cfg}

		def := program.DefaultLayout(prog)
		if err := checkPacked(opts.Check, cell.Name+"/sweep-default", prog, def); err != nil {
			return err
		}
		phl, err := baseline.PHLayout(prog, b.wcgFull)
		if err != nil {
			return err
		}
		if err := checkPacked(opts.Check, cell.Name+"/sweep-ph", prog, phl); err != nil {
			return err
		}
		// GBSC trained against the direct-mapped view of the geometry
		// (the Section 6 pair database handles 2-way natively; for
		// the sweep we measure how the direct-mapped placement holds
		// up, the more common deployment).
		res2, err := trg.Build(prog, b.train, trg.Options{
			CacheBytes: cfg.SizeBytes,
			Popular:    b.pop,
		})
		if err != nil {
			return err
		}
		dm := cache.Config{SizeBytes: cfg.SizeBytes, LineBytes: cfg.LineBytes, Assoc: 1}
		gl, err := core.Place(prog, res2, b.pop, dm)
		if err != nil {
			return err
		}
		if err := checkAligned(opts.Check, cell.Name+"/sweep-gbsc", prog, gl, b.pop, dm); err != nil {
			return err
		}
		// The cell's three candidates score in one walk of the testing
		// trace (the 2-way geometries exercise the batched LRU lanes).
		rates, _, err := scoreLayouts(cfg, b, []*program.Layout{def, phl, gl}, sh)
		if err != nil {
			return err
		}
		cell.Default, cell.PH, cell.GBSC = rates[0], rates[1], rates[2]
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{Cells: cells}, nil
}

// Render prints the grid grouped by benchmark.
func (r *SweepResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "== Cache-geometry sweep (placements retrained per geometry) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tcache\tdefault\tPH\tGBSC")
	for _, c := range r.Cells {
		fmt.Fprintf(tw, "%s\t%dK/%d-way\t%s\t%s\t%s\n",
			c.Name, c.Cache.SizeBytes/1024, c.Cache.Assoc,
			pct(c.Default), pct(c.PH), pct(c.GBSC))
	}
	return tw.Flush()
}
