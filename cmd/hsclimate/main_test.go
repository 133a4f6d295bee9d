package main_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	command "cadycore/cmd/hsclimate"
)

// bin is the hsclimate binary under test: this test binary, which TestMain
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

// runCLI runs the binary on a 16×12×4 mesh and returns its streams and exit
// code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-nx", "16", "-ny", "12", "-nz", "4"}, args...)...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running hsclimate %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return so.String(), se.String(), code
}

// TestInvalidInputIsUsageError: a mesh, σ stretching, time step, run length
// or process grid the model cannot run is a one-line error and exit 2, never
// a rank panic with a goroutine dump or a run of a negative number of steps.
func TestInvalidInputIsUsageError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nx", "4"}, "Nx = 4"},
		{[]string{"-stretch", "0"}, "stretch = 0"},
		{[]string{"-stretch", "80"}, "strictly increasing"},
		{[]string{"-dt2", "0"}, "dt2 = 0"},
		{[]string{"-days", "-1"}, "days = -1"},
		{[]string{"-days", "0.001"}, "days = 0.001"},
		{[]string{"-pa", "16"}, "process grid 16x1"},
		{[]string{"-pb", "0"}, "process grid 1x0"},
		{[]string{"-pb", "5"}, "process grid 1x5"},
	} {
		_, se, code := runCLI(t, tc.args...)
		if code != 2 || strings.Count(se, "\n") != 1 || !strings.Contains(se, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one line containing %q", tc.args, code, se, tc.want)
		}
	}
}

// TestRunOutcomeIsExitStatus: a finite run exits 0 with the climatology; a
// run that goes non-finite says so and exits 1.
func TestRunOutcomeIsExitStatus(t *testing.T) {
	so, se, code := runCLI(t, "-days", "0.01")
	if code != 0 || !strings.Contains(so, "zonal-mean zonal wind") {
		t.Errorf("finite run: exit %d, stderr %q, stdout %q; want exit 0 and the climatology", code, se, so)
	}
	so, _, code = runCLI(t, "-dt2", "200000", "-days", "30")
	if code != 1 || !strings.Contains(so, "RUN UNSTABLE") || strings.Contains(so, "zonal-mean") {
		t.Errorf("unstable run: exit %d, stdout %q; want exit 1 and RUN UNSTABLE without a climatology", code, so)
	}
}
