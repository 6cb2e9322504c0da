package sample

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/program"
)

// Estimate is one sampled miss-rate measurement.
type Estimate struct {
	// MissRate is the weighted estimate of the full-trace miss rate.
	MissRate float64
	// StdErr is the estimator's standard error, derived from the weighted
	// between-window variance of the per-window miss rates.
	StdErr float64
	// CIHalf is the half-width of the reported confidence interval:
	// Z·StdErr plus the unknown-state ambiguity plus the bias floor, 0
	// when the estimate is exact, and the vacuous full range 1 when only
	// a single non-exhaustive window was available (no variance
	// information exists).
	CIHalf float64
	// Windows is the number of windows replayed.
	Windows int
	// EventsReplayed counts trace events replayed, warm-up included;
	// RefsReplayed counts the line references of the measurement windows
	// only (the refs the estimate is built from).
	EventsReplayed int64
	RefsReplayed   int64
	// Exact reports that the plan covered the whole trace in one window,
	// making the estimate identical to the exact simulation.
	Exact bool
}

// Interval returns the confidence interval [lo, hi] clamped to [0, 1].
func (e Estimate) Interval() (lo, hi float64) {
	lo, hi = e.MissRate-e.CIHalf, e.MissRate+e.CIHalf
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Covers reports whether the exact value lies within the estimate's
// confidence interval.
func (e Estimate) Covers(exact float64) bool {
	return math.Abs(exact-e.MissRate) <= e.CIHalf
}

// compiledWindow is one selected window's replay material: the warm-up
// slice (replayed first, statistics discarded) and the measurement slice.
type compiledWindow struct {
	warm, body *cache.CompiledTrace
	weight     float64
	fresh      int64
}

// Evaluator holds a plan's windows precompiled for replay. Like a
// CompiledTrace it depends only on the (program, trace, plan) triple —
// never on a layout — so one evaluator is shared, concurrently if desired,
// across every layout evaluated against the trace. Each MissRateBatch call
// uses the caller's simulator, so workers bring their own.
type Evaluator struct {
	plan *Plan
	ct   *cache.CompiledTrace
	wins []compiledWindow
}

// NewEvaluator slices the full-trace compilation ct into the plan's
// windows. ct must be the compilation of the trace the plan was built
// from; a length mismatch is a programming error and panics.
func NewEvaluator(ct *cache.CompiledTrace, plan *Plan) *Evaluator {
	if ct.Len() != plan.TotalEvents {
		panic(fmt.Sprintf("sample: compiled trace has %d events, plan was built from %d",
			ct.Len(), plan.TotalEvents))
	}
	e := &Evaluator{plan: plan, ct: ct, wins: make([]compiledWindow, len(plan.Windows))}
	for i, w := range plan.Windows {
		e.wins[i] = compiledWindow{
			warm:   ct.Slice(w.WarmStart, w.Start),
			body:   ct.Slice(w.Start, w.End),
			weight: w.Weight,
			fresh:  w.Fresh,
		}
	}
	return e
}

// Plan returns the window-selection decision the evaluator replays.
func (e *Evaluator) Plan() *Plan { return e.plan }

// MissRateBatch replays the plan's windows against each layout and
// returns the weighted miss-rate estimates with their confidence
// intervals. Layouts are scored one after another through bs, each bound
// once and walked over every window; tables are compiled against the
// evaluator's own compilation, so the caller only supplies layouts and a
// simulator of the target geometry.
//
// The estimate splits misses by kind. Conflict/capacity misses are
// measured per window: the simulator is reset, warmed with the window's
// warm-up slice (statistics discarded), and the measurement window's
// statistics delta supplies that window's conflict rate. Cold misses are
// NOT taken from the windows — a window replayed from an empty cache
// re-faults the whole working set, which at low full-trace miss rates
// swamps the signal. Instead the full run's cold misses are reconstructed
// in closed form (Plan.ColdRate: first touch of a line is always a miss,
// so cold misses equal the distinct lines touched) and added back.
//
// A window's replay still observes cold misses beyond the Window.Fresh
// references that are genuinely cold in the full run: lines the full run
// touched before the window but the warm-up did not reach. Whether those
// references hit or conflict-missed in the full run is unknowable from
// the window alone, so they are scored at half weight and the other half
// widens the confidence interval — an interval over the unknown-state
// ambiguity, not a guess.
func (e *Evaluator) MissRateBatch(bs *cache.BatchSim, layouts []*program.Layout) ([]Estimate, error) {
	ests := make([]Estimate, len(layouts))
	sts := make([]cache.Stats, len(e.wins))
	for i, l := range layouts {
		tab, err := cache.CompileLayout(bs.Config(), e.ct, l)
		if err != nil {
			return nil, err
		}
		if err := bs.Bind(tab); err != nil {
			return nil, err
		}
		for wi, w := range e.wins {
			bs.Reset()
			if w.warm.Len() > 0 {
				if _, err := bs.Replay(w.warm); err != nil { // warm-up: discarded
					return nil, err
				}
			}
			if sts[wi], err = bs.Replay(w.body); err != nil {
				return nil, err
			}
		}
		ests[i] = e.estimate(l, sts)
	}
	return ests, nil
}

// estimate turns one layout's per-window measurement deltas (sts[i] is
// window i's body replay delta) into the weighted estimate, in a fixed
// operation order, so a layout's estimate does not depend on which other
// layouts share its call. It does not retain sts.
func (e *Evaluator) estimate(layout *program.Layout, sts []cache.Stats) Estimate {
	est := Estimate{Windows: len(e.wins)}
	if len(e.wins) == 0 {
		est.Exact = true // an empty trace is measured exactly: zero refs
		return est
	}
	rates := make([]float64, len(e.wins))
	var last cache.Stats
	var ambiguity float64
	for i, w := range e.wins {
		st := sts[i]
		if st.Refs > 0 {
			unknown := float64(st.Cold - w.fresh)
			if unknown < 0 {
				unknown = 0
			}
			rates[i] = (float64(st.Conflict()) + unknown/2) / float64(st.Refs)
			ambiguity += w.weight * unknown / 2 / float64(st.Refs)
		}
		est.MissRate += w.weight * rates[i]
		est.RefsReplayed += st.Refs
		est.EventsReplayed += int64(w.warm.Len() + w.body.Len())
		last = st
	}

	if len(e.wins) == 1 {
		if w := e.plan.Windows[0]; w.Start == 0 && w.End == e.plan.TotalEvents {
			// One window spanning the whole trace IS the exact simulation:
			// report its true miss rate, cold misses included.
			est.Exact = true
			est.MissRate = last.MissRate()
			return est
		}
		// A single mid-trace window carries no variance information; the
		// only honest interval is the whole range.
		est.MissRate += e.plan.ColdRate(layout)
		est.CIHalf = 1
		return est
	}
	est.MissRate += e.plan.ColdRate(layout)

	// Weighted between-window variance of the estimator: the
	// representatives are treated as a weighted sample of the per-window
	// conflict rates, with the usual k/(k−1) small-sample correction (the
	// closed-form cold term is deterministic and contributes none). The
	// additive floor absorbs residual bias (warm-up shortfall, medoid
	// non-representativeness) that between-window variance cannot see; the
	// accuracy harness measures the resulting coverage.
	chat := est.MissRate - e.plan.ColdRate(layout)
	var varSum float64
	for i, w := range e.wins {
		d := rates[i] - chat
		varSum += w.weight * w.weight * d * d
	}
	k := float64(len(e.wins))
	est.StdErr = math.Sqrt(varSum * k / (k - 1))
	est.CIHalf = e.plan.z*est.StdErr + ambiguity + e.plan.floor
	return est
}
