package experiments

import (
	"fmt"
	"sort"

	"repro/internal/telemetry/report"
)

// Record copies the machine-gateable numbers out of an experiment result
// into a run report. Only results with per-benchmark miss rates contribute
// (Table 1, Figure 5, Section 6 and the geometry sweep); anything else is a
// no-op, so callers can feed every result through unconditionally. All
// recorded values are deterministic functions of the experiment options,
// never of worker count or wall clock.
//
// Section 6 cells are named assoc2/default, assoc2/gbsc-direct and
// assoc2/gbsc-assoc; sweep cells sweep/<size>x<line>x<assoc>/<alg>, with
// the geometry in bytes and ways and alg one of Default, PH and GBSC.
func Record(rep *report.Report, result any) {
	if rep == nil {
		return
	}
	switch r := result.(type) {
	case *Table1Result:
		for _, row := range r.Rows {
			rep.AddMissRate(row.Name, "default", row.DefaultMissRate)
		}
	case *Figure5Result:
		for _, fb := range r.Benches {
			algs := make([]string, 0, len(fb.Unperturbed))
			for alg := range fb.Unperturbed {
				algs = append(algs, string(alg))
			}
			sort.Strings(algs)
			for _, alg := range algs {
				rep.AddMissRate(fb.Name, alg, fb.Unperturbed[AlgorithmName(alg)])
			}
		}
	case *SetAssocResult:
		for _, row := range r.Rows {
			rep.AddMissRate(row.Name, "assoc2/default", row.DefaultMR)
			rep.AddMissRate(row.Name, "assoc2/gbsc-direct", row.DirectGBSCMR)
			rep.AddMissRate(row.Name, "assoc2/gbsc-assoc", row.AssocGBSCMR)
		}
	case *SweepResult:
		for _, c := range r.Cells {
			geom := fmt.Sprintf("sweep/%dx%dx%d/", c.Cache.SizeBytes, c.Cache.LineBytes, c.Cache.Assoc)
			rep.AddMissRate(c.Name, geom+"Default", c.Default)
			rep.AddMissRate(c.Name, geom+"PH", c.PH)
			rep.AddMissRate(c.Name, geom+"GBSC", c.GBSC)
		}
	}
}
