package main_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the experiments binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "experiments-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building experiments: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI runs the binary on a small mesh and returns its streams and exit
// code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-nx", "48", "-ny", "24", "-nz", "8", "-m", "2", "-steps", "1", "-ps", "4"}, args...)...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running experiments %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return so.String(), se.String(), code
}

// TestInvalidInputIsUsageError: a mesh, iteration count or step count the
// model cannot run is a one-line error and exit 2, never a rank panic with a
// goroutine dump, and no figure is printed.
func TestInvalidInputIsUsageError(t *testing.T) {
	for _, tc := range []struct{ flag, val, want string }{
		{"-nx", "4", "Nx = 4"},
		{"-ny", "3", "Ny = 3"},
		{"-nz", "1", "Nz = 1"},
		{"-m", "0", "M = 0"},
		{"-steps", "0", "steps = 0"},
		{"-steps", "-2", "steps = -2"},
	} {
		so, se, code := runCLI(t, "-fig", "6", tc.flag, tc.val)
		if code != 2 || strings.Count(se, "\n") != 1 || !strings.Contains(se, tc.want) || so != "" {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q; want exit 2, no output and one line containing %q",
				tc.flag, tc.val, code, so, se, tc.want)
		}
	}
}

// TestValidInputRuns: the validation lets a runnable sweep through (the
// operator-flow figure, which needs no simulation).
func TestValidInputRuns(t *testing.T) {
	so, se, code := runCLI(t, "-fig", "flow")
	if code != 0 || !strings.Contains(so, "decomposition advice:") {
		t.Fatalf("exit %d, stderr %q, stdout %q; want exit 0 and the operator flow", code, se, so)
	}
}
