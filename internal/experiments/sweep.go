package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/telemetry"
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
	byGeom := make([][]SweepCell, len(geometries))
	for gi, cfg := range geometries {
		var err error
		byGeom[gi], err = forSuite(&opts, cfg, func(sh *telemetry.Shard, b *bench, cell *SweepCell) error {
			// GBSC is trained against the direct-mapped view of the
			// geometry (the Section 6 pair database handles 2-way
			// natively; the sweep measures how the direct-mapped
			// placement holds up, the more common deployment). The cell's
			// three layouts score one after another through one compiled
			// simulator (the 2-way geometries take the LRU walk).
			layouts, err := opts.Store.layouts(sh, b, cfg, AlgDefault, AlgPH, AlgGBSC)
			if err != nil {
				return err
			}
			rates, err := scoreLayouts(cfg, b, layouts, sh)
			if err != nil {
				return err
			}
			*cell = SweepCell{Name: b.pair.Bench.Name, Cache: cfg, Default: rates[0], PH: rates[1], GBSC: rates[2]}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var cells []SweepCell
	for bi := range byGeom[0] {
		for gi := range geometries {
			cells = append(cells, byGeom[gi][bi])
		}
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
