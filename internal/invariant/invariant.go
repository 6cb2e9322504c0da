// Package invariant statically verifies the structural well-formedness of
// placement outputs (program.Layout) and temporal relationship graphs,
// independent of the algorithms that produced them. The paper's evaluation
// only means anything if every layout is well formed — no overlapping
// procedures, no dropped chunks, conserved text size — so the experiment
// drivers, cmd/layout and cmd/cachesim run these checks as an always-on
// post-pass, and any violation fails the run (Error).
//
// The checks deliberately re-derive everything from first principles rather
// than trusting the constructors: a subtle GBSC merge bug should surface
// here as a named violation, not as a mysteriously "better" miss rate.
package invariant

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
)

// Rule names identify the violated invariant; every Violation carries one so
// tests (and humans reading CI logs) can tell exactly which property broke.
const (
	// Layout rules.
	RuleNegativeAddr  = "negative-addr"  // a procedure starts before address 0
	RuleDuplicate     = "duplicate"      // two procedures share a start address
	RuleOverlap       = "overlap"        // two procedures' byte ranges intersect
	RuleConservation  = "conservation"   // layout bytes don't add up against the program
	RuleGap           = "gap"            // forbidden or oversized empty space
	RuleAlignment     = "alignment"      // popular procedure not line-aligned
	RulePlacedLine    = "placed-line"    // procedure missed its assigned cache line
	RuleLostChunk     = "lost-chunk"     // chunk numbering disagrees with the program
	RulePopularExtent = "popular-extent" // popular procedure outside the claimed extent

	// TRG rules.
	RuleTRGSymmetry = "trg-symmetry" // edge weights differ by direction
	RuleTRGWeight   = "trg-weight"   // non-positive edge weight
	RuleTRGNode     = "trg-node"     // node outside its index space / popular set
	RuleTRGStats    = "trg-stats"    // build statistics are mutually inconsistent
)

// Violation is one broken invariant, with enough context (procedure names,
// addresses) to act on without re-running the producer.
type Violation struct {
	Rule   string
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// maxErrorDetails bounds how many violations Error spells out; the count is
// always exact.
const maxErrorDetails = 8

// Error folds violations into a single error, or nil if there are none. All
// violations are counted; the first few are spelled out.
func Error(context string, vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("invariant: %s: %d violation(s)", context, len(vs))
	n := len(vs)
	if n > maxErrorDetails {
		n = maxErrorDetails
	}
	for _, v := range vs[:n] {
		msg += "; " + v.String()
	}
	if len(vs) > n {
		msg += fmt.Sprintf("; and %d more", len(vs)-n)
	}
	return fmt.Errorf("%s", msg)
}

// defaultMaxViolations caps the violations one check reports; a corrupt
// layout should produce a readable report, not one line per procedure.
const defaultMaxViolations = 64

// LayoutOptions selects which invariants CheckLayout enforces beyond the
// universal ones (exactly-once placement, no overlaps, byte conservation).
// The zero value checks only the universal invariants.
type LayoutOptions struct {
	// Cache enables the cache-geometry checks (alignment, placed lines,
	// padding budget) when its LineBytes is positive.
	Cache cache.Config
	// Popular identifies the popular set for the alignment/extent rules;
	// nil treats every procedure as popular where those rules apply.
	Popular *popular.Set
	// Placed, when non-nil, asserts each listed procedure starts on its
	// assigned cache-relative line (the Section 4.2 tuples).
	Placed []place.Placed
	// Period is the cache-line period for Placed/padding checks; defaults
	// to Cache.NumLines() (direct-mapped) when zero.
	Period int
	// Chunker, when non-nil, is cross-checked against the program: chunk
	// counts, chunk byte totals, and owner lookups must all agree.
	Chunker *program.Chunker
	// RequirePacked forbids any gap: the layout must be a permutation of
	// the program packed back to back (DefaultLayout, PH).
	RequirePacked bool
	// RequireAlignedPopular asserts every popular procedure starts on a
	// cache-line boundary, as place.Emit guarantees for the GBSC family.
	RequireAlignedPopular bool
	// MaxViolations caps the report length (default 64).
	MaxViolations int
}

func (o *LayoutOptions) max() int {
	if o.MaxViolations > 0 {
		return o.MaxViolations
	}
	return defaultMaxViolations
}

// collector accumulates violations up to a cap.
type collector struct {
	vs  []Violation
	max int
}

func (c *collector) add(rule, format string, args ...any) {
	if len(c.vs) >= c.max {
		return
	}
	c.vs = append(c.vs, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

func (c *collector) full() bool { return len(c.vs) >= c.max }

// CheckLayout verifies that l is a well-formed placement of prog: every
// procedure placed exactly once at a non-negative address, no overlaps,
// total bytes conserved (extent = procedure bytes + gap bytes), plus any
// optional constraints selected in o. It returns all violations found (up
// to o.MaxViolations), each naming the offending procedures and addresses.
func CheckLayout(prog *program.Program, l *program.Layout, o LayoutOptions) []Violation {
	c := &collector{max: o.max()}
	if l == nil {
		c.add(RuleConservation, "layout is nil")
		return c.vs
	}
	if lp := l.Program(); lp != prog {
		// A layout is bound to its program; checking it against another
		// one is only meaningful if they describe the same procedures.
		if lp == nil || !samePrograms(prog, lp) {
			c.add(RuleConservation, "layout was produced for a different program (procedure count/sizes differ)")
			return c.vs
		}
	}
	n := prog.NumProcs()
	if n == 0 {
		return c.vs
	}

	for p := 0; p < n; p++ {
		if a := l.Addr(program.ProcID(p)); a < 0 {
			c.add(RuleNegativeAddr, "procedure %q starts at %d", prog.Name(program.ProcID(p)), a)
		}
	}

	order := l.OrderByAddress()
	overlapped := false
	for i := 1; i < len(order); i++ {
		prev, cur := order[i-1], order[i]
		switch {
		case l.Addr(prev) == l.Addr(cur):
			overlapped = true
			c.add(RuleDuplicate, "procedures %q and %q both start at %d",
				prog.Name(prev), prog.Name(cur), l.Addr(cur))
		case l.End(prev) > l.Addr(cur):
			overlapped = true
			c.add(RuleOverlap, "procedures %q [%d,%d) and %q [%d,%d) overlap",
				prog.Name(prev), l.Addr(prev), l.End(prev),
				prog.Name(cur), l.Addr(cur), l.End(cur))
		}
	}

	gaps := l.Gaps()
	gapBytes := 0
	for _, g := range gaps {
		gapBytes += g[1] - g[0]
	}
	extent := l.Extent()
	if !overlapped {
		// Byte conservation: the laid-out segment is exactly the program's
		// bytes plus the empty space between them. With no overlaps this
		// is an identity of a correct Layout representation; a violation
		// means Extent/Gaps disagree, i.e. the layout lost or minted bytes.
		if extent != prog.TotalSize()+gapBytes {
			c.add(RuleConservation, "extent %d != %d procedure bytes + %d gap bytes",
				extent, prog.TotalSize(), gapBytes)
		}
	}

	if o.RequirePacked {
		for _, g := range gaps {
			c.add(RuleGap, "packed layout has empty space [%d,%d)", g[0], g[1])
		}
	}

	lb := o.Cache.LineBytes
	if lb > 0 {
		period := o.Period
		if period == 0 {
			period = o.Cache.NumLines()
		}
		popCount := n
		isPopular := func(program.ProcID) bool { return true }
		if o.Popular != nil {
			popCount = o.Popular.Len()
			isPopular = o.Popular.Contains
		}

		if o.RequireAlignedPopular {
			for p := 0; p < n && !c.full(); p++ {
				id := program.ProcID(p)
				if isPopular(id) && l.Addr(id)%lb != 0 {
					c.add(RuleAlignment, "popular procedure %q starts at %d, not a multiple of the %d-byte line",
						prog.Name(id), l.Addr(id), lb)
				}
			}

			// place.Emit inserts less than one full cache period of padding
			// per popular procedure, so total empty space and the popular
			// extent are both bounded. Exceeding the bound means the
			// linearization runs away (e.g. a corrupted line assignment).
			budget := popCount * period * lb
			if !o.RequirePacked && gapBytes > budget {
				c.add(RuleGap, "total empty space %d bytes exceeds the %d-byte alignment budget for %d popular procedures",
					gapBytes, budget, popCount)
			}
			bound := prog.TotalSize() + budget
			for p := 0; p < n && !c.full(); p++ {
				id := program.ProcID(p)
				if isPopular(id) && l.End(id) > bound {
					c.add(RulePopularExtent, "popular procedure %q ends at %d, past the claimed extent bound %d",
						prog.Name(id), l.End(id), bound)
				}
			}
		}

		for _, t := range o.Placed {
			if t.Proc < 0 || int(t.Proc) >= n {
				c.add(RulePlacedLine, "placement tuple names invalid procedure id %d", t.Proc)
				continue
			}
			if got := (l.Addr(t.Proc) / lb) % period; got != t.Line {
				c.add(RulePlacedLine, "procedure %q at %d maps to cache line %d, assigned line %d",
					prog.Name(t.Proc), l.Addr(t.Proc), got, t.Line)
			}
		}
	}

	if o.Chunker != nil {
		checkChunker(c, prog, o.Chunker)
	}
	return c.vs
}

// checkChunker verifies ck's chunk numbering against prog: Section 3/4.1
// chunking says procedure p contributes ceil(size(p)/chunkSize) chunks whose
// byte sizes sum back to size(p), with owner lookups inverting the mapping.
func checkChunker(c *collector, prog *program.Program, ck *program.Chunker) {
	cs := ck.ChunkSize()
	want := 0
	for p := 0; p < prog.NumProcs(); p++ {
		want += program.CeilDiv(prog.Size(program.ProcID(p)), cs)
	}
	if got := ck.NumChunks(); got != want {
		c.add(RuleLostChunk, "chunker has %d chunks, program needs %d at %d-byte chunks", got, want, cs)
	}
	if ck.NumChunks() == 0 {
		if prog.NumProcs() > 0 {
			c.add(RuleLostChunk, "chunker covers no procedures, program has %d", prog.NumProcs())
		}
		return
	}
	// Sizes are positive, so every procedure owns at least one chunk and the
	// last chunk's owner is the chunker's last procedure.
	lastOwner, _ := ck.Owner(program.ChunkID(ck.NumChunks() - 1))
	if int(lastOwner)+1 != prog.NumProcs() {
		c.add(RuleLostChunk, "chunker covers %d procedures, program has %d", int(lastOwner)+1, prog.NumProcs())
		return
	}
	for p := 0; p < prog.NumProcs() && !c.full(); p++ {
		id := program.ProcID(p)
		wantChunks := program.CeilDiv(prog.Size(id), cs)
		if got := ck.NumProcChunks(id); got != wantChunks {
			c.add(RuleLostChunk, "procedure %q has %d chunks, want %d for %d bytes",
				prog.Name(id), got, wantChunks, prog.Size(id))
			continue
		}
		bytes := 0
		for i := 0; i < wantChunks; i++ {
			bytes += ck.ChunkBytes(ck.Chunk(id, i))
		}
		if bytes != prog.Size(id) {
			c.add(RuleLostChunk, "procedure %q chunk bytes sum to %d, procedure is %d bytes",
				prog.Name(id), bytes, prog.Size(id))
		}
		if owner, idx := ck.Owner(ck.FirstChunk(id)); owner != id || idx != 0 {
			c.add(RuleLostChunk, "procedure %q first chunk resolves to procedure %d index %d",
				prog.Name(id), owner, idx)
		}
	}
}

// samePrograms reports whether two programs describe the same procedures
// (count and sizes), which is all the layout checks depend on.
func samePrograms(a, b *program.Program) bool {
	if a.NumProcs() != b.NumProcs() {
		return false
	}
	for p := 0; p < a.NumProcs(); p++ {
		if a.Size(program.ProcID(p)) != b.Size(program.ProcID(p)) {
			return false
		}
	}
	return true
}
