package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Suite generation reads a non-positive scale as full scale and
// Options.Runs reads 0 as 40, so -scale and -runs must be positive; like
// an unknown check mode, a negative sampling override or an unknown -run
// name, a bad value fails before any experiment runs or any file is
// written. Each case's arguments follow the default -run, so its own -run
// wins.
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
		{"zero runs", []string{"-runs", "0"}, "-runs"},
		{"negative runs", []string{"-runs", "-1"}, "-runs"},
		{"runs below -1", []string{"-runs", "-2"}, "-runs"},
		{"negative sample windows", []string{"-sample", "-sample-windows", "-1"}, "-sample-windows"},
		{"negative sample interval", []string{"-sample", "-sample-interval", "-5"}, "-sample-interval"},
		{"removed shards flag", []string{"-shards", "4"}, "flag provided but not defined"},
		{"unknown experiment", []string{"-run", "table1,bogus"}, "bogus"},
	} {
		var out bytes.Buffer
		args := append([]string{"-run", "table1", "-bench", "perl"}, tc.args...)
		err := run(append(args, files...), &out)
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
