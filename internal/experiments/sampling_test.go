package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestSampling runs the error-vs-speedup driver at test scale and checks
// the aggregate acceptance shape: every cell estimated, bounded error,
// intervals that cover, and a real replay saving.
func TestSampling(t *testing.T) {
	// Scale 0.2 rather than the usual 0.05: at 0.05 the window interval
	// clamps to its 64-event floor and windows cover a degenerate share of
	// the trace, so the absolute-error assertion would measure the clamp,
	// not the estimator.
	opts := smallOpts()
	opts.Scale = 0.2
	res, err := Sampling(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(figure5Algs); len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Exact <= 0 || c.Exact >= 1 || c.Est.MissRate <= 0 || c.Est.MissRate >= 1 {
			t.Errorf("%s/%s: degenerate rates %+v", c.Bench, c.Alg, c)
		}
		if !c.Est.Covers(c.Exact) {
			t.Errorf("%s/%s: interval ±%.4f around %.4f misses exact %.4f",
				c.Bench, c.Alg, c.Est.CIHalf, c.Est.MissRate, c.Exact)
		}
	}
	if mae := res.MeanAbsErr(); mae > 0.005 {
		t.Errorf("mean abs error %.4fpp exceeds 0.5pp", 100*mae)
	}
	if f := res.ReplayFraction(); f <= 0 || f >= 0.5 {
		t.Errorf("replay fraction %.3f not a saving", f)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean |err|") {
		t.Error("render missing summary line")
	}
}
