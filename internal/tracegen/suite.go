package tracegen

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Pair is a benchmark with its training and testing inputs, mirroring the
// columns of Table 1.
type Pair struct {
	Bench *Benchmark
	Train Input
	Test  Input
}

// suite is Table 1: each benchmark's generator configuration with its
// training and testing inputs, whose Events are the full-scale (scale 1.0)
// event counts.
var suite = []struct {
	cfg         Config
	train, test Input
}{
	{
		// gcc: 2277K text, 2005 procedures, 351K/136 popular.
		cfg: Config{
			Name: "gcc", Seed: 101,
			NumProcs: 2005, TotalBytes: 2277 * 1024,
			HotProcs: 136, HotBytes: 351 * 1024,
			Drivers: 12,
		},
		train: Input{Name: "recog.i", Seed: 1, Events: 120_000, Bias: 0.3},
		test:  Input{Name: "global.i", Seed: 2, Events: 160_000, Bias: 0.3},
	},
	{
		// go: 590K text, 3221 procedures, 134K/112 popular.
		cfg: Config{
			Name: "go", Seed: 202,
			NumProcs: 3221, TotalBytes: 590 * 1024,
			HotProcs: 112, HotBytes: 134 * 1024,
			Drivers: 10,
		},
		train: Input{Name: "11x11-lvl4", Seed: 3, Events: 80_000, Bias: 0.3},
		test:  Input{Name: "9x9-lvl6", Seed: 4, Events: 70_000, Bias: 0.3},
	},
	{
		// ghostscript: 1817K text, 372 procedures, 104K/216 popular.
		cfg: Config{
			Name: "ghostscript", Seed: 303,
			NumProcs: 372, TotalBytes: 1817 * 1024,
			HotProcs: 216, HotBytes: 104 * 1024,
			Drivers: 16,
		},
		train: Input{Name: "14p-presentation", Seed: 5, Events: 140_000, Bias: 0.3},
		test:  Input{Name: "3p-paper", Seed: 6, Events: 140_000, Bias: 0.3},
	},
	{
		// m88ksim: 549K text, 460 procedures, 21K/31 popular. The
		// paper's training input (dcrand) is a poor predictor of the
		// test input (dhry); a large bias reproduces that pathology.
		cfg: Config{
			Name: "m88ksim", Seed: 404,
			NumProcs: 460, TotalBytes: 549 * 1024,
			HotProcs: 31, HotBytes: 21 * 1024,
			Drivers: 5,
		},
		train: Input{Name: "dcrand", Seed: 7, Events: 180_000, Bias: 1.6},
		test:  Input{Name: "dhry", Seed: 8, Events: 180_000, Bias: 1.6},
	},
	{
		// perl: 664K text, 271 procedures, 83K/36 popular.
		cfg: Config{
			Name: "perl", Seed: 505,
			NumProcs: 271, TotalBytes: 664 * 1024,
			HotProcs: 36, HotBytes: 83 * 1024,
			Drivers: 5,
		},
		train: Input{Name: "scrabbl.pl", Seed: 9, Events: 280_000, Bias: 0.4},
		test:  Input{Name: "primes.pl", Seed: 10, Events: 520_000, Bias: 0.4},
	},
	{
		// vortex: 1073K text, 923 procedures, 117K/156 popular.
		cfg: Config{
			Name: "vortex", Seed: 606,
			NumProcs: 923, TotalBytes: 1073 * 1024,
			HotProcs: 156, HotBytes: 117 * 1024,
			Drivers: 14,
		},
		train: Input{Name: "persons.250", Seed: 11, Events: 150_000, Bias: 0.3},
		test:  Input{Name: "persons.1k", Seed: 12, Events: 300_000, Bias: 0.3},
	},
}

// SuiteScale controls trace lengths: Events = base × scale, at least 2000.
// Scale 1.0 gives traces of a few hundred thousand activations per input —
// laptop-scale stand-ins for the paper's 17M–146M basic-block traces; the
// interleaving statistics that drive placement converge well before that
// length.
//
// Suite returns the six benchmarks of Table 1 with static statistics
// matched to the paper (total size, procedure count, popular size/count)
// and train/test inputs. Everything is deterministic: the same scale always
// produces the same programs and traces. A non-positive scale reads as
// 1.0; callers taking a scale from a user check it with CheckScale first.
func Suite(scale float64) []*Pair {
	if scale <= 0 {
		scale = 1
	}
	scaled := func(in Input) Input {
		in.Events = max(int(float64(in.Events)*scale), 2000)
		return in
	}
	pairs := make([]*Pair, len(suite))
	for i, b := range suite {
		pairs[i] = &Pair{Bench: MustNew(b.cfg), Train: scaled(b.train), Test: scaled(b.test)}
	}
	return pairs
}

// CheckScale rejects a scale Suite cannot honour: one that is not
// positive and finite, or at which an input's event count would exceed
// trace.MaxDeclaredEvents, the most a trace file can hold.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("scale must be positive and finite, got %g", scale)
	}
	for _, b := range suite {
		for _, in := range []Input{b.train, b.test} {
			if events := float64(in.Events) * scale; events > trace.MaxDeclaredEvents {
				return fmt.Errorf("scale %g gives an input of %.4g events, above the %d a trace can hold",
					scale, events, trace.MaxDeclaredEvents)
			}
		}
	}
	return nil
}

// Lookup returns the suite pair with the given benchmark name, or nil.
func Lookup(pairs []*Pair, name string) *Pair {
	for _, p := range pairs {
		if p.Bench.Name == name {
			return p
		}
	}
	return nil
}
