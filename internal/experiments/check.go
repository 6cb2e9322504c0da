package experiments

import (
	"repro/internal/cache"
	"repro/internal/invariant"
	"repro/internal/popular"
	"repro/internal/program"
)

// Every experiment driver runs the invariant checker on every layout it
// produces: a malformed layout must fail the experiment, not silently move
// a miss rate. The helpers below encode the three layout classes the
// algorithms produce.

// checkLayout applies the invariant post-pass with explicit options; the
// class helpers below cover the common cases.
func checkLayout(context string, prog *program.Program, l *program.Layout, o invariant.LayoutOptions) error {
	return invariant.Error(context, invariant.CheckLayout(prog, l, o))
}

// checkPacked verifies a gap-free permutation layout (link order, PH).
func checkPacked(context string, prog *program.Program, l *program.Layout) error {
	return checkLayout(context, prog, l, invariant.LayoutOptions{RequirePacked: true})
}

// checkAligned verifies an Emit-produced layout of the GBSC family: every
// popular procedure line-aligned, padding within the alignment budget.
func checkAligned(context string, prog *program.Program, l *program.Layout, pop *popular.Set, cfg cache.Config) error {
	return checkLayout(context, prog, l, invariant.LayoutOptions{
		Cache: cfg, Popular: pop, RequireAlignedPopular: true,
	})
}

// checkGeneral verifies only the universal invariants (HKC, padded
// layouts: procedures may start anywhere, but must not overlap and must
// conserve bytes).
func checkGeneral(context string, prog *program.Program, l *program.Layout, pop *popular.Set, cfg cache.Config) error {
	return checkLayout(context, prog, l, invariant.LayoutOptions{Cache: cfg, Popular: pop})
}
