package analyzers

import "testing"

// TestSelfTest runs the same fixture suite cmd/repolint -selftest uses, so
// a regression in either the analyzers or the fixtures fails go test too.
func TestSelfTest(t *testing.T) {
	if err := SelfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestAllowCommentOnSameLine(t *testing.T) {
	diags, err := LintSource("repro/internal/core", map[string]string{"f.go": `package core

import "time"

func A() int64 { return time.Now().Unix() } // repolint:allow nodeterm/time: fixture
func B() int64 { return time.Now().Unix() }
`})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the unsuppressed finding, got %v", diags)
	}
	if diags[0].Pos.Line != 6 {
		t.Errorf("finding at line %d, want line 6: %v", diags[0].Pos.Line, diags[0])
	}
}

func TestAllowCommentNamesTheRule(t *testing.T) {
	// An allow comment for a different rule must not suppress.
	diags, err := LintSource("repro/internal/core", map[string]string{"f.go": `package core

import "time"

// repolint:allow nodeterm/rand: wrong rule
func A() int64 { return time.Now().Unix() }
`})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Rule != "stalallow/unused" || diags[1].Rule != "nodeterm/time" {
		t.Fatalf("wrong-rule allow comment must leave the finding and be flagged stale: %v", diags)
	}
}

func TestScopeFilter(t *testing.T) {
	if NoDeterm.Applies("repro/internal/program") {
		t.Error("nodeterm must not apply outside the pipeline scope")
	}
	if !NoDeterm.Applies("repro/internal/trg") || !NoDeterm.Applies("repro/internal/experiments") {
		t.Error("nodeterm must apply to the pipeline packages")
	}
	if !RunErr.Applies("repro/cmd/layout") || RunErr.Applies("repro/internal/core") {
		t.Error("runerr scope wrong")
	}
	if !NoDeterm.Applies("repro/internal/optimal") || !NoDeterm.Applies("repro/internal/telemetry") {
		t.Error("nodeterm must cover the analysis and telemetry packages")
	}
	if !NoDeterm.Applies("repro/internal/metrics") || !NoDeterm.Applies("repro/internal/graph") {
		t.Error("nodeterm must cover every package that feeds the rendered tables")
	}
	if !StalAllow.Applies("repro/internal/core") || StalAllow.Applies("repro/internal/program") {
		t.Error("stalallow must audit exactly the packages the primary analyzers cover")
	}
}
