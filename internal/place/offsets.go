package place

// Offsets is the offset search that GBSC's merge_nodes (Figure 4), its
// Section 6 two-way variant and HKC's coloring slide (Section 5) share: it
// scores every offset o in [0, period) of a sliding node or procedure
// against fixed ones, and picks the first cheapest. Each cost is a sum of
// terms; a term is a fixed run of lines [f, f+fn), a sliding run
// [s, s+sn) and a weight w, and it adds w times the number of line pairs
// (i, j), i < fn, j < sn, with f+i ≡ s+j+o (mod period) to offset o. A run
// longer than the period counts its repeated lines, so it is the multiset
// of lines it covers.
//
// One term's costs over all offsets are the circular convolution of two
// interval indicators, a trapezoid in o. A trapezoid is four impulses on a
// second-difference buffer, and integrating the buffer twice materializes
// every term at once, so a search costs O(terms + period) rather than
// O(period) per term. The sums are exact int64.
type Offsets struct {
	period int
	// d2 is the second-difference buffer over linear offsets [0, 3·period);
	// hi is one past its last impulse, and the buffer is zero from hi on.
	d2 []int64
	hi int
	// flat is the cost every offset shares: the line pairs of the full
	// turns of runs longer than the period.
	flat  int64
	costs []int64
}

// NewOffsets returns an empty search over period offsets.
func NewOffsets(period int) *Offsets {
	return &Offsets{period: period, d2: make([]int64, 3*period), costs: make([]int64, period)}
}

// Add charges one term: weight w for every line pair that the fixed run
// [fixed, fixed+fixedLen) shares with the sliding run [slide,
// slide+slideLen) once that is shifted by the offset. Starts may be any
// integer; they are taken modulo the period.
func (o *Offsets) Add(fixed, fixedLen, slide, slideLen int, w int64) {
	P := o.period
	if fixedLen >= P || slideLen >= P {
		// A run of k·P+r lines covers every line k times plus r lines from
		// its start. A full turn meets any run of n lines in n pairs at
		// every offset.
		kf, ks := fixedLen/P, slideLen/P
		fixedLen -= kf * P
		slideLen -= ks * P
		o.flat += w * int64(kf*ks*P+kf*slideLen+ks*fixedLen)
	}
	if fixedLen == 0 || slideLen == 0 {
		return
	}
	// Offset fixed−slide+i−j pairs line i of the fixed run with line j of
	// the sliding one; the trapezoid over i−j starts at s0 and spans
	// fixedLen+slideLen−1 offsets, all below 3·period.
	s0 := fixed - slide - (slideLen - 1)
	if s0 < 0 {
		s0 += P // from starts in [0, period), s0 > −2·period
	}
	if s0 < 0 || s0 >= P {
		s0 = mod(s0, P)
	}
	d2 := o.d2
	d2[s0] += w
	d2[s0+fixedLen] -= w
	d2[s0+slideLen] -= w
	d2[s0+fixedLen+slideLen] += w
	o.hi = max(o.hi, s0+fixedLen+slideLen+1)
}

// Costs integrates the terms added since the last Costs or Best call into
// the cost of every offset and starts a new search. The slice is reused by
// the next call.
func (o *Offsets) Costs() []int64 {
	P, d2, costs := o.period, o.d2, o.costs
	for i := range costs {
		costs[i] = o.flat
	}
	// The double prefix sum turns the impulses into the summed trapezoids;
	// each term's impulses telescope to zero past its window, so the
	// running sums are exact and vanish from hi on. Later periods fold back
	// onto the first, and the buffer is cleared as it is read.
	var d1, t int64
	for base := 0; base < o.hi; base += P {
		win := d2[base:min(base+P, o.hi)]
		for i, d := range win {
			d1 += d
			t += d1
			costs[i] += t
			win[i] = 0
		}
	}
	o.hi, o.flat = 0, 0
	return costs
}

// Best returns the first offset of least cost for the terms added since
// the last Costs or Best call, and starts a new search.
func (o *Offsets) Best() int {
	costs := o.Costs()
	best, least := 0, costs[0]
	for i, c := range costs {
		if c < least {
			best, least = i, c
		}
	}
	return best
}
