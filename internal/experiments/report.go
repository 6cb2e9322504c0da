package experiments

import (
	"sort"

	"repro/internal/telemetry/report"
)

// Record copies the machine-gateable numbers out of an experiment result
// into a run report. Only results with per-benchmark miss rates contribute;
// anything else is a no-op, so callers can feed every result through
// unconditionally. All recorded values are deterministic functions of the
// experiment options, never of worker count or wall clock.
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
	}
}
