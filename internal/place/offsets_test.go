package place

import (
	"math/rand"
	"testing"
)

type offsetTerm struct {
	fixed, fixedLen, slide, slideLen int
	w                                int64
}

// bruteOffsetCosts counts every term's line pairs at every offset one by
// one: the definition Offsets computes in O(terms + period).
func bruteOffsetCosts(period int, terms []offsetTerm) []int64 {
	costs := make([]int64, period)
	for o := range costs {
		for _, t := range terms {
			for i := 0; i < t.fixedLen; i++ {
				for j := 0; j < t.slideLen; j++ {
					if mod(t.fixed+i, period) == mod(t.slide+j+o, period) {
						costs[o] += t.w
					}
				}
			}
		}
	}
	return costs
}

func checkOffsetCosts(t *testing.T, period int, terms []offsetTerm) {
	t.Helper()
	o := NewOffsets(period)
	for _, tm := range terms {
		o.Add(tm.fixed, tm.fixedLen, tm.slide, tm.slideLen, tm.w)
	}
	got := o.Costs()
	want := bruteOffsetCosts(period, terms)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("period %d terms %+v: costs %v, want %v", period, terms, got, want)
		}
	}
}

func TestOffsetsCases(t *testing.T) {
	cases := []struct {
		name   string
		period int
		terms  []offsetTerm
	}{
		{"disjoint-capable", 8, []offsetTerm{{0, 2, 2, 2, 1}}},
		{"fixed wraps", 8, []offsetTerm{{6, 4, 0, 2, 3}}},
		{"sliding wraps", 8, []offsetTerm{{1, 2, 7, 3, 1}}},
		{"runs fill the period", 8, []offsetTerm{{0, 5, 4, 3, 1}}},
		{"runs exceed the period together", 8, []offsetTerm{{5, 6, 2, 7, 2}}},
		{"fixed covers all", 8, []offsetTerm{{3, 8, 5, 2, 1}}},
		{"sliding covers all", 8, []offsetTerm{{3, 2, 5, 8, 1}}},
		{"both exceed the period", 8, []offsetTerm{{0, 16, 5, 19, 1}}},
		{"negative and large starts", 8, []offsetTerm{{-13, 3, 29, 4, 5}}},
		{"empty runs", 8, []offsetTerm{{0, 0, 1, 3, 7}, {2, 3, 0, 0, 7}}},
		{"period one", 1, []offsetTerm{{0, 3, 0, 5, 2}}},
		{"several terms", 16, []offsetTerm{{0, 4, 3, 5, 1}, {12, 9, 1, 2, 1 << 20}, {7, 1, 7, 1, 4}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkOffsetCosts(t, c.period, c.terms) })
	}
}

func TestOffsetsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		period := rng.Intn(24) + 1
		terms := make([]offsetTerm, rng.Intn(5)+1)
		for i := range terms {
			terms[i] = offsetTerm{
				fixed: rng.Intn(4*period) - 2*period, fixedLen: rng.Intn(3*period + 1),
				slide: rng.Intn(4*period) - 2*period, slideLen: rng.Intn(3*period + 1),
				w: rng.Int63n(50) + 1,
			}
		}
		checkOffsetCosts(t, period, terms)
	}
}

// Each Costs or Best call starts a new search, and Best returns the first
// offset of least cost.
func TestOffsetsBestIsFirstMinimumAndResets(t *testing.T) {
	o := NewOffsets(8)
	o.Add(0, 16, 3, 9, 1) // two full turns: every offset costs the same
	if got := o.Best(); got != 0 {
		t.Errorf("flat costs: Best = %d, want 0", got)
	}
	// A 4-line fixed run against a 2-line sliding one: offsets 4, 5 and 6
	// keep the sliding run off the fixed lines 0–3; the first is 4.
	o.Add(0, 4, 0, 2, 1)
	if got := o.Best(); got != 4 {
		t.Errorf("Best = %d, want 4", got)
	}
	for i, c := range o.Costs() {
		if c != 0 {
			t.Fatalf("cost %d = %d after a finished search, want 0", i, c)
		}
	}
}
