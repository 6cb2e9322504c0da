// Compare the three placement algorithms of the paper (PH, HKC, GBSC) on
// one of the synthetic Table 1 benchmarks, including a small randomized-
// profile study in the style of Figure 5.
//
// Usage:
//
//	go run ./examples/compare [-bench vortex] [-scale 0.5] [-runs 10]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"repro/internal/experiments"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	benchName := flag.String("bench", "vortex", "benchmark: gcc, go, ghostscript, m88ksim, perl, vortex")
	scale := flag.Float64("scale", 0.5, "trace length scale")
	runs := flag.Int("runs", 10, "perturbed profiles per algorithm")
	flag.Parse()

	if tracegen.Lookup(tracegen.Suite(*scale), *benchName) == nil {
		log.Fatalf("unknown benchmark %q", *benchName)
	}

	res, err := experiments.Figure5(experiments.Options{
		Scale:      *scale,
		Runs:       *runs,
		Seed:       1,
		Benchmarks: []string{*benchName},
	})
	if err != nil {
		log.Fatal(err)
	}
	fb := res.Benches[0]

	fmt.Printf("benchmark %s: %d randomized profiles per algorithm (s=0.1)\n\n", fb.Name, *runs)
	fmt.Println("unperturbed profiles:")
	type row struct {
		alg experiments.AlgorithmName
		mr  float64
	}
	rows := []row{
		{experiments.AlgPH, fb.Unperturbed[experiments.AlgPH]},
		{experiments.AlgHKC, fb.Unperturbed[experiments.AlgHKC]},
		{experiments.AlgGBSC, fb.Unperturbed[experiments.AlgGBSC]},
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].mr < rows[j].mr })
	for i, r := range rows {
		marker := ""
		if i == 0 {
			marker = " ← best"
		}
		fmt.Printf("  %-5s %.3f%%%s\n", r.alg, 100*r.mr, marker)
	}

	fmt.Println("\nmiss-rate distribution over randomized profiles (min / median / max):")
	for _, alg := range []experiments.AlgorithmName{experiments.AlgPH, experiments.AlgHKC, experiments.AlgGBSC} {
		s := fb.Sorted[alg]
		fmt.Printf("  %-5s %.3f%% / %.3f%% / %.3f%%\n",
			alg, 100*s[0], 100*s[len(s)/2], 100*s[len(s)-1])
	}

	fmt.Println("\nASCII CDF (x = miss rate, each row one algorithm; '*' marks runs):")
	lo, hi := 1.0, 0.0
	for _, alg := range []experiments.AlgorithmName{experiments.AlgPH, experiments.AlgHKC, experiments.AlgGBSC} {
		s := fb.Sorted[alg]
		if s[0] < lo {
			lo = s[0]
		}
		if s[len(s)-1] > hi {
			hi = s[len(s)-1]
		}
	}
	const width = 64
	for _, alg := range []experiments.AlgorithmName{experiments.AlgPH, experiments.AlgHKC, experiments.AlgGBSC} {
		line := make([]byte, width+1)
		for i := range line {
			line[i] = ' '
		}
		for _, mr := range fb.Sorted[alg] {
			pos := 0
			if hi > lo {
				pos = int(float64(width) * (mr - lo) / (hi - lo))
			}
			line[pos] = '*'
		}
		fmt.Printf("  %-5s |%s|\n", alg, string(line))
	}
	fmt.Printf("         %.3f%%%*s%.3f%%\n", 100*lo, width-8, "", 100*hi)
}
