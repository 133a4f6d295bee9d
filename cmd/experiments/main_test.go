package main_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	command "cadycore/cmd/experiments"
)

// bin is the experiments binary under test: this test binary, which TestMain
// turns into the command (command.Main, export_test.go) when runAsCommand is
// set in its environment. The test binary links the command's packages, so
// go test's cache sees every change to them.
var bin string

const runAsCommand = "CADY_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) != "" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		flag.CommandLine.Usage = func() { flag.Usage() }
		command.Main()
		os.Exit(0)
	}
	exe, err := os.Executable()
	if err != nil {
		panic(err)
	}
	bin = exe
	os.Setenv(runAsCommand, "1")
	os.Exit(m.Run())
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

// TestValidInputRuns: the validation lets a runnable sweep through. The
// operator flow at M = 2 on 8 ranks (Y-Z 4×2) prints the counts its runs
// measured: 3M+4 = 10 exchange rounds -> 2, and 3M = 6 z-collectives -> 2M = 4.
func TestValidInputRuns(t *testing.T) {
	so, se, code := runCLI(t, "-fig", "flow", "-ps", "8")
	if code != 0 || !strings.Contains(so, "exchange rounds: 10 -> 2; z-collectives: 6 -> 4") {
		t.Fatalf("exit %d, stderr %q, stdout %q; want exit 0 and the measured 10 -> 2 and 6 -> 4", code, se, so)
	}
}

// TestFlowNamesMissingLayout: a rank count that gives no Y-Z layout with
// p_z > 1 (4 ranks lay out 4×1 on 48×24×8, and 64 not at all) is one stderr
// line naming it and exit 1, never a goroutine dump or a partial table.
func TestFlowNamesMissingLayout(t *testing.T) {
	for _, ps := range []string{"4", "64"} {
		so, se, code := runCLI(t, "-fig", "flow", "-ps", ps)
		if code != 1 || strings.Count(se, "\n") != 1 || !strings.Contains(se, "lays out Y-Z with p_z > 1") ||
			strings.Contains(so, "exchanges") || strings.Contains(so, "->") {
			t.Errorf("-ps %s: exit %d, stderr %q, stdout %q; want exit 1, one stderr line naming the Y-Z layout and no table",
				ps, code, se, so)
		}
	}
}
