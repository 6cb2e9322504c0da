package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Suite generation reads a non-positive scale as full scale, so -scale
// must be positive; like an unknown check mode, a bad value fails before
// any experiment runs or any file is written.
func TestBadFlagsReturnError(t *testing.T) {
	dir := t.TempDir()
	files := []string{"-stats", filepath.Join(dir, "report.json"), "-csv", filepath.Join(dir, "fig.csv")}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"negative scale", []string{"-scale", "-1"}, "-scale"},
		{"zero scale", []string{"-scale", "0"}, "-scale"},
		{"unknown check mode", []string{"-check", "loud"}, "loud"},
	} {
		var out bytes.Buffer
		err := run(append(append(tc.args, "-run", "table1", "-bench", "perl"), files...), &out)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed before failing:\n%s", tc.name, out.String())
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("%s: wrote %v (%v)", tc.name, entries, err)
		}
	}
}
