package invariant

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
)

var testCache = cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 1}

func testProgram(t *testing.T) *program.Program {
	t.Helper()
	return program.MustNew([]program.Procedure{
		{Name: "alpha", Size: 64},
		{Name: "beta", Size: 96},
		{Name: "gamma", Size: 32},
		{Name: "delta", Size: 128},
		{Name: "epsilon", Size: 48},
	})
}

func rules(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Rule
	}
	return out
}

func hasRule(vs []Violation, rule string) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// TestCheckLayoutBrokenLayouts seeds one broken layout per invariant and
// asserts the checker names the right violation for each.
func TestCheckLayoutBrokenLayouts(t *testing.T) {
	prog := testProgram(t)
	otherSizes := program.MustNew([]program.Procedure{
		{Name: "alpha", Size: 64},
		{Name: "beta", Size: 96},
		{Name: "gamma", Size: 40}, // differs from prog
		{Name: "delta", Size: 128},
		{Name: "epsilon", Size: 48},
	})
	all := popular.All(prog)

	cases := []struct {
		name   string
		layout func() *program.Layout
		opts   LayoutOptions
		want   string
		// detail must appear in the violation message (procedure names and
		// addresses, per the "not just a boolean" requirement).
		detail string
	}{
		{
			name: "overlap",
			layout: func() *program.Layout {
				l := program.DefaultLayout(prog)
				l.SetAddr(1, l.Addr(0)+10) // beta starts inside alpha
				return l
			},
			want:   RuleOverlap,
			detail: `"alpha"`,
		},
		{
			name: "duplicate",
			layout: func() *program.Layout {
				l := program.DefaultLayout(prog)
				l.SetAddr(1, l.Addr(0))
				return l
			},
			want:   RuleDuplicate,
			detail: `"beta"`,
		},
		{
			name: "gap-in-packed-layout",
			layout: func() *program.Layout {
				l := program.DefaultLayout(prog)
				l.SetAddr(4, l.Addr(4)+64) // hole before epsilon
				return l
			},
			opts:   LayoutOptions{RequirePacked: true},
			want:   RuleGap,
			detail: "empty space",
		},
		{
			name:   "lost-chunk",
			layout: func() *program.Layout { return program.DefaultLayout(prog) },
			opts:   LayoutOptions{Chunker: program.MustNewChunker(otherSizes, 64)},
			want:   RuleLostChunk,
			detail: `"gamma"`,
		},
		{
			name: "bad-alignment",
			layout: func() *program.Layout {
				l := program.DefaultLayout(prog)
				l.SetAddr(4, l.Addr(4)+1) // epsilon off the line boundary
				return l
			},
			opts:   LayoutOptions{Cache: testCache, Popular: all, RequireAlignedPopular: true},
			want:   RuleAlignment,
			detail: `"epsilon"`,
		},
		{
			name:   "missed-assigned-line",
			layout: func() *program.Layout { return program.DefaultLayout(prog) },
			opts: LayoutOptions{
				Cache:  testCache,
				Placed: []place.Placed{{Proc: 0, Line: 3}}, // alpha is at line 0
			},
			want:   RulePlacedLine,
			detail: `"alpha"`,
		},
		{
			name: "popular-outside-extent",
			layout: func() *program.Layout {
				l := program.DefaultLayout(prog)
				l.SetAddr(4, 100*testCache.SizeBytes) // far past any pad budget
				return l
			},
			opts:   LayoutOptions{Cache: testCache, Popular: all, RequireAlignedPopular: true},
			want:   RulePopularExtent,
			detail: `"epsilon"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := CheckLayout(prog, tc.layout(), tc.opts)
			if !hasRule(vs, tc.want) {
				t.Fatalf("violations %v, want rule %q", rules(vs), tc.want)
			}
			found := false
			for _, v := range vs {
				if v.Rule == tc.want && strings.Contains(v.Detail, tc.detail) {
					found = true
				}
			}
			if !found {
				t.Errorf("no %q violation mentions %q; got %v", tc.want, tc.detail, vs)
			}
		})
	}
}

func TestCheckLayoutAcceptsValidLayouts(t *testing.T) {
	prog := testProgram(t)
	ck := program.MustNewChunker(prog, 64)

	packed := program.DefaultLayout(prog)
	if vs := CheckLayout(prog, packed, LayoutOptions{RequirePacked: true, Chunker: ck}); len(vs) != 0 {
		t.Errorf("packed default layout: unexpected violations %v", vs)
	}

	// An Emit-produced aligned layout must satisfy the full aligned-popular
	// option set, including its own placement tuples.
	items := []place.Placed{{Proc: 0, Line: 0}, {Proc: 1, Line: 4}, {Proc: 3, Line: 9}}
	l, err := place.Emit(prog, items, []program.ProcID{2, 4}, testCache, testCache.NumLines())
	if err != nil {
		t.Fatal(err)
	}
	vs := CheckLayout(prog, l, LayoutOptions{
		Cache:   testCache,
		Placed:  items,
		Chunker: ck,
		// No RequireAlignedPopular: the fillers (gamma, epsilon) land
		// wherever they fit, by design.
	})
	if len(vs) != 0 {
		t.Errorf("emitted layout: unexpected violations %v", vs)
	}

	if vs := CheckLayout(prog, nil, LayoutOptions{}); !hasRule(vs, RuleConservation) {
		t.Errorf("nil layout: violations %v, want %q", rules(vs), RuleConservation)
	}
}

func TestCheckLayoutProgramMismatch(t *testing.T) {
	prog := testProgram(t)
	other := program.MustNew([]program.Procedure{{Name: "solo", Size: 8}})
	l := program.DefaultLayout(prog)
	vs := CheckLayout(other, l, LayoutOptions{})
	if !hasRule(vs, RuleConservation) {
		t.Fatalf("violations %v, want %q for mismatched program", rules(vs), RuleConservation)
	}
}

func TestError(t *testing.T) {
	if err := Error("ctx", nil); err != nil {
		t.Fatalf("Error with no violations = %v, want nil", err)
	}
	vs := []Violation{
		{Rule: RuleOverlap, Detail: "a and b overlap"},
		{Rule: RuleGap, Detail: "hole at 10"},
	}
	err := Error("figure5/perl", vs)
	if err == nil {
		t.Fatal("Error = nil, want error")
	}
	// The error names its context and spells out every violation.
	for _, want := range []string{"figure5/perl", "2 violation(s)", RuleOverlap, "a and b overlap", RuleGap, "hole at 10"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestErrorCapsDetails(t *testing.T) {
	var vs []Violation
	for i := 0; i < maxErrorDetails+5; i++ {
		vs = append(vs, Violation{Rule: RuleGap, Detail: "hole"})
	}
	err := Error("ctx", vs)
	if !strings.Contains(err.Error(), "and 5 more") {
		t.Errorf("error %q should count the suppressed violations", err)
	}
}
