package testutil

import (
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with the output under test")

// Golden fails the test unless got equals the content of the golden file at
// path. Under -update it rewrites the file with got first.
func Golden(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		//cadyvet:volatile regenerates a checked-in test fixture; no crash recovery reads it
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (rerun with -update after an intended change):\n%s", path, got)
	}
}

// Updating reports whether the test binary runs with -update, for a golden
// test that compares with a tolerance rather than byte for byte.
func Updating() bool { return *update }
