package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
)

// smallOpts keeps experiment tests fast: short traces, few perturbed runs,
// two benchmarks.
func smallOpts() Options {
	return Options{
		Scale:      0.05,
		Runs:       4,
		Seed:       1,
		Benchmarks: []string{"m88ksim", "perl"},
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ProcCount == 0 || row.TotalSize == 0 {
			t.Errorf("%s: empty statics %+v", row.Name, row)
		}
		if row.PopularCount == 0 || row.PopularCount > row.ProcCount {
			t.Errorf("%s: popular count %d", row.Name, row.PopularCount)
		}
		if row.DefaultMissRate <= 0 || row.DefaultMissRate >= 1 {
			t.Errorf("%s: default miss rate %v", row.Name, row.DefaultMissRate)
		}
		if row.AvgQSize <= 1 {
			t.Errorf("%s: avg Q size %v", row.Name, row.AvgQSize)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "m88ksim") {
		t.Error("render missing benchmark name")
	}
}

func TestFigure5(t *testing.T) {
	res, err := Figure5(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benches) != 2 {
		t.Fatalf("benches = %d", len(res.Benches))
	}
	for _, fb := range res.Benches {
		for _, alg := range []AlgorithmName{AlgPH, AlgHKC, AlgGBSC} {
			s := fb.Sorted[alg]
			if len(s) != 4 {
				t.Fatalf("%s/%s: %d runs", fb.Name, alg, len(s))
			}
			for i := 1; i < len(s); i++ {
				if s[i] < s[i-1] {
					t.Errorf("%s/%s: rates not sorted", fb.Name, alg)
				}
			}
			if fb.Unperturbed[alg] <= 0 {
				t.Errorf("%s/%s: unperturbed rate %v", fb.Name, alg, fb.Unperturbed[alg])
			}
			cdf := fb.CDF(alg)
			if cdf[len(cdf)-1][1] != 1.0 {
				t.Errorf("%s/%s: CDF does not end at 1", fb.Name, alg)
			}
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GBSC") {
		t.Error("render missing GBSC")
	}
}

func TestFigure5CSV(t *testing.T) {
	res, err := Figure5(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 2 benchmarks x 3 algorithms x 4 runs
	if want := 1 + 2*3*4; len(lines) != want {
		t.Errorf("CSV lines = %d, want %d", len(lines), want)
	}
	if lines[0] != "benchmark,alg,missrate,fraction" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "m88ksim,PH,") {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestFigure5Deterministic(t *testing.T) {
	a, err := Figure5(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure5(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Benches {
		for _, alg := range []AlgorithmName{AlgPH, AlgHKC, AlgGBSC} {
			sa, sb := a.Benches[i].Sorted[alg], b.Benches[i].Sorted[alg]
			for j := range sa {
				if sa[j] != sb[j] {
					t.Fatalf("%s/%s: non-deterministic results", a.Benches[i].Name, alg)
				}
			}
		}
	}
}

// A negative run count is an error, not a panic inside the grid.
func TestFigure5RejectsNegativeRuns(t *testing.T) {
	for _, runs := range []int{-1, -2} {
		opts := smallOpts()
		opts.Runs = runs
		if _, err := Figure5(opts); err == nil || !strings.Contains(err.Error(), "run count") {
			t.Errorf("Runs %d: error %v, want a run-count error", runs, err)
		}
	}
}

func TestFigure6(t *testing.T) {
	// Figure 6 always uses go; it needs moderately long traces for the
	// conflict statistics to converge.
	res, err := Figure6(Options{Scale: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 80 {
		t.Fatalf("points = %d, want 80", len(res.Points))
	}
	if math.IsNaN(res.TRGCorr) {
		t.Error("TRG correlation NaN")
	}
	// The paper's claim, at the heart of Section 5.3: the fine-grained TRG
	// metric predicts misses well.
	if res.TRGCorr < 0.6 {
		t.Errorf("TRG correlation %.3f too weak", res.TRGCorr)
	}
	if res.TRGCorr < res.WCGCorr-0.1 {
		t.Errorf("TRG correlation %.3f not stronger than WCG %.3f", res.TRGCorr, res.WCGCorr)
	}
}

func TestPadding(t *testing.T) {
	res, err := Padding(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "m88ksim" {
		t.Errorf("benchmark = %s (first filter entry)", res.Benchmark)
	}
	if res.BaseMissRate <= 0 || res.PadMissRate <= 0 {
		t.Errorf("rates = %v, %v", res.BaseMissRate, res.PadMissRate)
	}
	// Padding must change the miss rate (the Section 5.1 point).
	if res.BaseMissRate == res.PadMissRate {
		t.Error("padding did not change the miss rate at all")
	}
}

func TestSameInput(t *testing.T) {
	res, err := SameInput(Options{Scale: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []AlgorithmName{AlgPH, AlgHKC, AlgGBSC} {
		if res.MissRates[alg] <= 0 {
			t.Errorf("%s: miss rate %v", alg, res.MissRates[alg])
		}
	}
	// Section 5.3: with train==test, GBSC <= PH.
	if res.MissRates[AlgGBSC] > res.MissRates[AlgPH] {
		t.Errorf("train==test: GBSC %v worse than PH %v",
			res.MissRates[AlgGBSC], res.MissRates[AlgPH])
	}
}

func TestSetAssoc(t *testing.T) {
	res, err := SetAssoc(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.DefaultMR <= 0 || row.AssocGBSCMR <= 0 || row.DirectGBSCMR <= 0 {
			t.Errorf("%s: rates %+v", row.Name, row)
		}
		if row.PairDBEntries == 0 {
			t.Errorf("%s: empty pair database", row.Name)
		}
	}
}

func TestPageLocality(t *testing.T) {
	res, err := PageLocality(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.StdMR <= 0 || row.PageMR <= 0 {
			t.Errorf("%s: rates %+v", row.Name, row)
		}
		// Cache behaviour must be essentially unchanged: the variant only
		// reorders, never realigns.
		if diff := row.PageMR - row.StdMR; diff > 0.01 || diff < -0.01 {
			t.Errorf("%s: page-aware layout changed miss rate %.4f -> %.4f",
				row.Name, row.StdMR, row.PageMR)
		}
		if row.StdPages.UniquePages == 0 || row.PagePages.UniquePages == 0 {
			t.Errorf("%s: zero pages touched", row.Name)
		}
	}
}

func TestConflicts(t *testing.T) {
	opts := smallOpts()
	opts.Benchmarks = []string{"m88ksim"}
	res, err := Conflicts(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	for name, cs := range map[string]int64{
		"default": row.Default.Misses, "ph": row.PH.Misses,
		"hkc": row.HKC.Misses, "gbsc": row.GBSC.Misses,
	} {
		if cs == 0 {
			t.Errorf("%s: zero misses", name)
		}
	}
	// Classification must partition the misses for every layout.
	for name, cs := range map[string]cache.ClassifiedStats{
		"default": row.Default, "ph": row.PH, "hkc": row.HKC, "gbsc": row.GBSC,
	} {
		if cs.Cold+cs.Capacity+cs.Conflict != cs.Misses {
			t.Errorf("%s: classes do not sum: %+v", name, cs)
		}
	}
	// GBSC's conflict misses must be well below the default layout's.
	if row.GBSC.Conflict >= row.Default.Conflict {
		t.Errorf("GBSC conflict misses %d not below default %d",
			row.GBSC.Conflict, row.Default.Conflict)
	}
}

func TestSplitting(t *testing.T) {
	opts := smallOpts()
	opts.Benchmarks = []string{"perl"}
	res, err := Splitting(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row.Splits == 0 {
		t.Error("no procedures split on perl")
	}
	if row.GBSC.Misses == 0 || row.SplitGBSC.Misses == 0 {
		t.Errorf("zero misses: %+v", row)
	}
}

func TestCacheSweep(t *testing.T) {
	opts := smallOpts()
	opts.Benchmarks = []string{"m88ksim"}
	res, err := CacheSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4 geometries", len(res.Cells))
	}
	// Larger direct-mapped caches must not have higher default miss rates.
	var dm []float64
	for _, c := range res.Cells {
		if c.Cache.Assoc == 1 {
			dm = append(dm, c.Default)
		}
	}
	for i := 1; i < len(dm); i++ {
		if dm[i] > dm[i-1]+1e-9 {
			t.Errorf("default miss rate increased with cache size: %v", dm)
		}
	}
}

func TestOptimality(t *testing.T) {
	res, err := Optimality(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.GBSCMisses < row.OptimalMisses {
			t.Errorf("seed %d: GBSC %d beat the \"optimal\" %d — search is broken",
				row.Seed, row.GBSCMisses, row.OptimalMisses)
		}
	}
	if res.MeanRatio > 1.25 {
		t.Errorf("mean ratio %.3f too far from optimal", res.MeanRatio)
	}
	if res.ExactCount < 5 {
		t.Errorf("only %d/20 optimal", res.ExactCount)
	}
}

func TestBlockReorder(t *testing.T) {
	res, err := BlockReorder(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DefaultOrderDefaultLayout <= 0 || res.DefaultOrderGBSC <= 0 || res.ReorderedGBSC <= 0 {
		t.Fatalf("zero rates: %+v", res)
	}
	// Reordering shrinks average extents.
	if res.ReorderedExtent >= res.DefaultExtent {
		t.Errorf("reordered extent %.0f not below default %.0f",
			res.ReorderedExtent, res.DefaultExtent)
	}
	// The composed pipeline beats GBSC alone, which beats the default.
	if res.DefaultOrderGBSC >= res.DefaultOrderDefaultLayout {
		t.Errorf("GBSC %.4f not below default %.4f",
			res.DefaultOrderGBSC, res.DefaultOrderDefaultLayout)
	}
	if res.ReorderedGBSC >= res.DefaultOrderGBSC {
		t.Errorf("reorder+GBSC %.4f not below GBSC %.4f",
			res.ReorderedGBSC, res.DefaultOrderGBSC)
	}
}

func TestHeadroom(t *testing.T) {
	opts := smallOpts()
	opts.Benchmarks = []string{"m88ksim"}
	res, err := Headroom(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	// Seeded with GBSC's assignment, the annealer can only improve the
	// metric it optimizes.
	if row.AnnealMetric > row.GBSCMetric {
		t.Errorf("annealed metric %d above GBSC %d despite GBSC seed",
			row.AnnealMetric, row.GBSCMetric)
	}
	if row.GBSCMR <= 0 || row.AnnealMR <= 0 {
		t.Errorf("zero rates: %+v", row)
	}
}

func TestAblations(t *testing.T) {
	opts := smallOpts()
	opts.Benchmarks = []string{"m88ksim"}
	res, err := Ablations(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	for name, v := range map[string]float64{
		"full": row.Full, "nochunk": row.NoChunking,
		"qhalf": row.QHalf, "qdouble": row.QDouble, "phtrg": row.PHWithTRG,
	} {
		if v <= 0 || v >= 1 {
			t.Errorf("%s: rate %v", name, v)
		}
	}
}
