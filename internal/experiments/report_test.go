package experiments

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/telemetry/report"
)

// TestRecordDeterministic locks in Record's contract: feeding the same
// results into fresh reports must produce byte-identical artifacts, which
// means the assembly loop may not depend on map iteration order, and every
// result type with miss rates lands under its documented cell names.
func TestRecordDeterministic(t *testing.T) {
	result := &Figure5Result{
		Benches: []Figure5Bench{
			{
				Name: "perl",
				Unperturbed: map[AlgorithmName]float64{
					AlgPH: 0.04, AlgHKC: 0.03, AlgGBSC: 0.02,
				},
			},
			{
				Name: "vortex",
				Unperturbed: map[AlgorithmName]float64{
					AlgPH: 0.07, AlgHKC: 0.06, AlgGBSC: 0.05,
				},
			},
		},
	}
	assoc := &SetAssocResult{Rows: []SetAssocRow{
		{Name: "perl", DefaultMR: 0.08, DirectGBSCMR: 0.03, AssocGBSCMR: 0.025},
	}}
	sweep := &SweepResult{Cells: []SweepCell{
		{Name: "perl", Cache: cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 1}, Default: 0.1, PH: 0.06, GBSC: 0.05},
		{Name: "perl", Cache: cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 2}, Default: 0.07, PH: 0.04, GBSC: 0.03},
	}}
	record := func(rep *report.Report) {
		Record(rep, result)
		Record(rep, &Table1Result{Rows: []Table1Row{{Name: "perl", DefaultMissRate: 0.09}}})
		Record(rep, assoc)
		Record(rep, sweep)
	}
	render := func() []byte {
		rep := report.New("test")
		record(rep)
		var buf bytes.Buffer
		if err := report.Write(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := render()
	for i := 0; i < 20; i++ {
		if got := render(); !bytes.Equal(got, first) {
			t.Fatalf("Record produced differing reports:\n%s\nvs\n%s", first, got)
		}
	}
	// The recorded cells must actually land: three algorithms for the
	// Figure 5 bench, the Table 1 default rate, three Section 6 cells and
	// three per sweep geometry.
	rep := report.New("test")
	record(rep)
	var perl *report.Benchmark
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == "perl" {
			perl = &rep.Benchmarks[i]
		}
	}
	if perl == nil {
		t.Fatalf("no perl benchmark: %+v", rep.Benchmarks)
	}
	want := map[string]float64{
		"GBSC": 0.02, "HKC": 0.03, "PH": 0.04, "default": 0.09,
		"assoc2/default": 0.08, "assoc2/gbsc-direct": 0.03, "assoc2/gbsc-assoc": 0.025,
		"sweep/4096x32x1/Default": 0.1, "sweep/4096x32x1/PH": 0.06, "sweep/4096x32x1/GBSC": 0.05,
		"sweep/8192x32x2/Default": 0.07, "sweep/8192x32x2/PH": 0.04, "sweep/8192x32x2/GBSC": 0.03,
	}
	if len(perl.MissRates) != len(want) {
		keys := make([]string, 0, len(perl.MissRates))
		for k := range perl.MissRates {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		t.Errorf("perl cells %v, want %d", keys, len(want))
	}
	for k, v := range want {
		if got, ok := perl.MissRates[k]; !ok || got != v {
			t.Errorf("perl %s = %v (present %v), want %v", k, got, ok, v)
		}
	}
}
