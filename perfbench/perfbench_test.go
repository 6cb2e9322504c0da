package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/program"
)

var update = flag.Bool("update", false, "rewrite expected.json from seed 1's outputs")

// small is a cheap suite for tests: two programs at a twentieth of the
// paper's trace lengths.
var small = suiteConfig{scale: 0.05, programs: []string{"go", "m88ksim"}}

func onePass(t *testing.T, w workload, expect map[string]float64) *pass {
	t.Helper()
	p := newPass(nil, expect)
	w.run(p)
	return p
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	// pass [0,100) > op.a [10,60) > layer [20,50); pass > layer [70,90).
	spans := []span{
		{Name: "pass", Parent: -1, CPUStart: 0, CPUEnd: 100},
		{Name: "a", Parent: 0, CPUStart: 10, CPUEnd: 60},
		{Name: "b", Parent: 1, CPUStart: 20, CPUEnd: 50},
		{Name: "b", Parent: 0, CPUStart: 70, CPUEnd: 90},
	}
	// Offset the indices as a later pass's spans would be.
	const base = 5
	for i := range spans {
		if spans[i].Parent >= 0 {
			spans[i].Parent += base
		}
	}
	self := selfCPU(spans, base)
	want := map[string]float64{"pass": 30e-9, "a": 20e-9, "b": 50e-9}
	for name, v := range want {
		if d := self[name] - v; d > 1e-18 || d < -1e-18 {
			t.Errorf("self[%s] = %g, want %g", name, self[name], v)
		}
	}
	// Every parent's time is its self time plus its children's.
	if got := self["pass"] + self["a"] + self["b"]; got < 100e-9-1e-18 || got > 100e-9+1e-18 {
		t.Errorf("self times sum to %g, want the root's 100ns", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runLastLine runs the command with args and decodes its last output line.
func runLastLine(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestResultLineMatchesBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the search workload")
	}
	bf := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	// The traced run writes its spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, tc := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
		res := runLastLine(t, "--workload", "search", "--seed", "3", "--seconds", "0", "--trace", tc.trace)
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct %t, attempted %d, failed %d", tc.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", tc.trace, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", tc.trace, m.Name, got, m.Unit)
			}
		}
		for n := range res.Metrics {
			if !name.MatchString(n) {
				t.Errorf("metric name %q does not match %v", n, name)
			}
		}
	}
}

// outcome is everything a pass computes that must not depend on timing.
type outcome struct {
	Got                     map[string]float64
	Counts                  map[string]int64
	Attempted, Failed       int
	Refs, Misses, Gap, Prog int64
	SampleErr               float64
}

func outcomeOf(p *pass) outcome {
	return outcome{p.got, p.counts, p.attempted, p.failed(), p.refs, p.misses, p.gapBytes, p.progBytes, p.sampleErrPP}
}

// smallWorkloads sets up each workload on cheap inputs.
func smallWorkloads(t *testing.T, seed int64) map[string]workload {
	t.Helper()
	pl, err := newPlaceOn(small, seed)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := newFigure5Grid(figure5Config{small, 2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := newScoreOn(suiteConfig{scale: 0.05, programs: []string{"m88ksim"}}, seed)
	if err != nil {
		t.Fatal(err)
	}
	se, err := newSearch(seed)
	if err != nil {
		t.Fatal(err)
	}
	se.(*searchWorkload).programs = se.(*searchWorkload).programs[:2]
	return map[string]workload{"place": pl, "figure5": f5, "score": sc, "search": se}
}

func TestSameSeedSameOutcome(t *testing.T) {
	a, b := smallWorkloads(t, 5), smallWorkloads(t, 5)
	for name := range a {
		pa, pb := onePass(t, a[name], nil), onePass(t, b[name], nil)
		if pa.failed() != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, pa.failed(), pa.attempted, pa.errs)
		}
		if oa, ob := outcomeOf(pa), outcomeOf(pb); !reflect.DeepEqual(oa, ob) {
			t.Errorf("%s: two set-ups of seed 5 differ:\n%+v\n%+v", name, oa, ob)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a, b := smallWorkloads(t, 1), smallWorkloads(t, 2)
	if bytes.Equal(a["place"].(*placeWorkload).train[0], b["place"].(*placeWorkload).train[0]) {
		t.Error("place: seeds 1 and 2 give the same training trace")
	}
	if reflect.DeepEqual(a["search"].(*searchWorkload).programs[1].tr, b["search"].(*searchWorkload).programs[1].tr) {
		t.Error("search: seeds 1 and 2 give the same tiny program trace")
	}
	for name := range a {
		if reflect.DeepEqual(onePass(t, a[name], nil).got, onePass(t, b[name], nil).got) {
			t.Errorf("%s: seeds 1 and 2 give the same outputs", name)
		}
	}
}

func TestMalformedLayoutFailsOneOperation(t *testing.T) {
	w, err := newFigure5Grid(figure5Config{suiteConfig{scale: 0.05, programs: []string{"m88ksim"}}, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.PaperConfig
	p := newPass(nil, nil)
	pr, err := prepare(p, w.pairs[0], w.train[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct := cache.CompileTrace(pr.prog, w.test[0])
	var panel []cell
	for run := -1; run < 2; run++ {
		c := cell{run: run}
		c.op = p.do(func() (err error) {
			c.layout, err = placeAlg(p, "GBSC", pr, cfg, perturbRNG(1, run))
			return err
		})
		panel = append(panel, c)
	}
	// Overlap the unperturbed layout's first two procedures.
	bad := panel[0].layout.Clone()
	bad.SetAddr(program.ProcID(1), bad.Addr(0))
	panel[0].layout = bad

	scorePanel(p, cache.MustNewBatchSim(cfg), ct, pr, "GBSC", panel)
	if p.attempted != 3 || p.failed() != 1 || !p.bad[panel[0].op] {
		t.Fatalf("attempted %d, failed %d (%v); want 3 attempted and only op %d failed",
			p.attempted, p.failed(), p.errs, panel[0].op)
	}
	for _, c := range panel[1:] {
		if _, ok := p.got[fmt.Sprintf("m88ksim/GBSC/%d/misses", c.run)]; !ok {
			t.Errorf("run %d was not scored", c.run)
		}
	}
}

func TestFigure5MatchesExperiments(t *testing.T) {
	cfg := figure5Config{small, 3}
	w, err := newFigure5Grid(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Figure5(experiments.Options{
		Scale: cfg.scale, Runs: cfg.runs, Benchmarks: cfg.programs, Seed: 1, Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := onePass(t, w, nil)
	if p.failed() != 0 {
		t.Fatalf("grid failed: %v", p.errs)
	}
	for _, fb := range res.Benches {
		for _, alg := range figure5Algs {
			var sorted []float64
			var unperturbed float64
			for run := -1; run < cfg.runs; run++ {
				key := fmt.Sprintf("%s/%s/%d", fb.Name, alg, run)
				misses, ok := p.got[key+"/misses"]
				if !ok {
					t.Fatalf("no output %s", key)
				}
				mr := misses / p.got[key+"/refs"]
				if run < 0 {
					unperturbed = mr
				} else {
					sorted = append(sorted, mr)
				}
			}
			sort.Float64s(sorted)
			a := experiments.AlgorithmName(alg)
			if unperturbed != fb.Unperturbed[a] || !reflect.DeepEqual(sorted, fb.Sorted[a]) {
				t.Errorf("%s/%s: benchmark %v %v, experiments %v %v",
					fb.Name, alg, unperturbed, sorted, fb.Unperturbed[a], fb.Sorted[a])
			}
		}
	}
}

// expectedFile reads expected.json.
func expectedFile(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	var all map[string]map[string]float64
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		t.Fatal(err)
	}
	return all
}

// TestExpectedResults runs every workload at seed 1 and compares its
// outputs with expected.json; -update rewrites the file instead.
func TestExpectedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at paper scale")
	}
	all := map[string]map[string]float64{}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	want := expectedFile(t)
	for _, name := range names {
		w, err := workloads[name](1)
		if err != nil {
			t.Fatal(err)
		}
		p := onePass(t, w, nil)
		if p.failed() != 0 {
			t.Fatalf("%s: %v", name, p.errs)
		}
		all[name] = p.got
		if !*update && !reflect.DeepEqual(p.got, want[name]) {
			t.Errorf("%s: outputs differ from expected.json; rerun with -update if the change is intended", name)
		}
	}
	if *update {
		b, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExpectedMatchesExperimentsOutput cross-checks the expected
// unperturbed GBSC rates against the checked-in experiments output:
// Figure 5's "MR (no random)" for the direct-mapped cache and Section 6's
// "GBSC(direct)" for the 2-way LRU cache.
func TestExpectedMatchesExperimentsOutput(t *testing.T) {
	f, err := os.Open("../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	figure5 := map[string]string{}  // program → GBSC MR (no random)
	section6 := map[string]string{} // program → GBSC(direct)
	var bench, section string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "== Section 6:"):
			section = "6"
		case strings.HasPrefix(line, "== ") && strings.Contains(line, "perturbed runs"):
			section, bench = "5", fields[1]
		case strings.HasPrefix(line, "== "):
			section = ""
		case section == "5" && len(fields) > 1 && fields[0] == "GBSC":
			figure5[bench] = fields[1]
		case section == "6" && len(fields) > 2 && fields[0] != "program":
			section6[fields[0]] = fields[2]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(figure5) != 6 || len(section6) != 6 {
		t.Fatalf("parsed %d Figure 5 and %d Section 6 rows, want 6 each", len(figure5), len(section6))
	}
	pct := func(misses, refs float64) string { return fmt.Sprintf("%.2f%%", 100*misses/refs) }
	all := expectedFile(t)
	for prog, want := range figure5 {
		pl, sc := all["place"], all["score"]
		if got := pct(pl[prog+"/misses"], pl[prog+"/refs"]); got != want {
			t.Errorf("place %s: GBSC direct-mapped %s, experiments_output.txt %s", prog, got, want)
		}
		if got := pct(sc[prog+"/GBSC/-1/dm"], sc[prog+"/GBSC/-1/refs"]); got != want {
			t.Errorf("score %s: GBSC direct-mapped %s, experiments_output.txt %s", prog, got, want)
		}
		if got := pct(sc[prog+"/GBSC/-1/lru"], sc[prog+"/GBSC/-1/refs"]); got != section6[prog] {
			t.Errorf("score %s: GBSC on 2-way LRU %s, experiments_output.txt %s", prog, got, section6[prog])
		}
	}
}
