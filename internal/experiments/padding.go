package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/tracegen"
)

// PaddingResult reproduces the Section 5.1 sensitivity demonstration: the
// perl benchmark's GBSC layout, and the identical layout with one cache
// line (32 bytes) of empty space appended to every procedure. The paper
// measured 3.8% → 5.4%; the point is that a trivial layout change moves the
// miss rate dramatically.
type PaddingResult struct {
	Benchmark    string
	PadBytes     int
	BaseMissRate float64
	PadMissRate  float64
}

// Padding runs the experiment on perl (or the first benchmark in the
// filtered suite).
func Padding(opts Options) (*PaddingResult, error) {
	opts.setDefaults()
	pairs, err := opts.suite()
	if err != nil {
		return nil, err
	}
	pair := tracegen.Lookup(pairs, "perl")
	if len(opts.Benchmarks) > 0 {
		pair = pairs[0]
	}
	sh := opts.Telemetry.Shard()
	b, err := prepare(pair, opts.Cache, sh)
	if err != nil {
		return nil, err
	}
	layout, err := core.Place(pair.Bench.Prog, b.trgRes, b.pop, opts.Cache)
	if err != nil {
		return nil, err
	}
	if err := checkAligned(pair.Bench.Name+"/padding-base", pair.Bench.Prog, layout, b.pop, opts.Cache); err != nil {
		return nil, err
	}
	padded := layout.PadAll(opts.Cache.LineBytes)
	// The padded variant deliberately inserts gaps; only the universal
	// invariants apply.
	if err := checkGeneral(pair.Bench.Name+"/padding-padded", pair.Bench.Prog, padded, b.pop, opts.Cache); err != nil {
		return nil, err
	}
	// Both variants score in one walk of the testing trace.
	mrs, err := scoreLayouts(opts.Cache, b, []*program.Layout{layout, padded}, sh)
	if err != nil {
		return nil, err
	}
	return &PaddingResult{
		Benchmark:    pair.Bench.Name,
		PadBytes:     opts.Cache.LineBytes,
		BaseMissRate: mrs[0],
		PadMissRate:  mrs[1],
	}, nil
}

// Render prints the two miss rates.
func (r *PaddingResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "== Section 5.1 padding sensitivity (%s) ==\n", r.Benchmark)
	fmt.Fprintf(w, "GBSC layout:                      %s\n", pct(r.BaseMissRate))
	fmt.Fprintf(w, "same layout + %dB pad per proc:   %s\n", r.PadBytes, pct(r.PadMissRate))
	fmt.Fprintf(w, "relative change:                  %+.0f%%\n",
		100*(r.PadMissRate-r.BaseMissRate)/r.BaseMissRate)
	return nil
}
