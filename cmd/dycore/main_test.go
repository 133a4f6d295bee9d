package main_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	command "cadycore/cmd/dycore"
	"cadycore/internal/checkpoint"
)

// bin is the dycore binary under test: this test binary, which TestMain
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

// runCLI runs the binary on the small test mesh and returns its streams and
// exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-nx", "48", "-ny", "24", "-nz", "8", "-m", "2"}, args...)...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running dycore %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return so.String(), se.String(), code
}

// TestLoadWrongMesh: a checkpoint of another mesh is a one-line usage error,
// not a rank panic with a goroutine dump.
func TestLoadWrongMesh(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "f.ck")
	if _, se, code := runCLI(t, "-steps", "1", "-save", ck); code != 0 {
		t.Fatalf("saving: exit %d: %s", code, se)
	}
	_, se, code := runCLI(t, "-nx", "96", "-ny", "48", "-load", ck)
	if code != 1 || strings.Count(se, "\n") != 1 ||
		!strings.Contains(se, "holds a 48x24x8 mesh") || !strings.Contains(se, "96x48x8") {
		t.Fatalf("exit %d, stderr %q; want exit 1 and one line naming both meshes", code, se)
	}
}

// TestInvalidInputIsUsageError: a mesh or configuration the model cannot run
// is a one-line error and exit 2, never a rank panic with a goroutine dump.
func TestInvalidInputIsUsageError(t *testing.T) {
	for _, tc := range []struct{ flag, val, want string }{
		{"-nx", "0", "Nx = 0"},
		{"-nx", "4", "Nx = 4"},
		{"-ny", "4", "Ny = 4"},
		{"-nz", "0", "Nz = 0"},
		{"-m", "0", "M = 0"},
		{"-dt2", "0", "dt2 = 0"},
		{"-steps", "0", "steps = 0"},
		{"-steps", "-1", "steps = -1"},
		{"-pa", "0", "process grid 0x2"},
		{"-pb", "-1", "process grid 2x-1"},
	} {
		// The flag under test comes last, so it overrides the -steps 1 default.
		_, se, code := runCLI(t, "-steps", "1", tc.flag, tc.val)
		if code != 2 || strings.Count(se, "\n") != 1 || !strings.Contains(se, tc.want) {
			t.Errorf("%s %s: exit %d, stderr %q; want exit 2 and one line containing %q", tc.flag, tc.val, code, se, tc.want)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		// A process grid wider than the mesh extent it splits.
		{[]string{"-alg", "yz", "-pa", "30"}, "process grid 30x2"},
		// The exact pole mirror needs full longitude circles per rank.
		{[]string{"-alg", "xy", "-pa", "2", "-pb", "1", "-shiftpoles"}, "ShiftedPoleMirror requires p_x = 1"},
		// A name outside the table, and a 3-D grid whose third extent no
		// flag sets.
		{[]string{"-alg", "zz"}, `unknown algorithm "zz" (want ca, yz, xy or 3d)`},
		{[]string{"-alg", "3d"}, "process grid 2x2x0"},
	} {
		_, se, code := runCLI(t, append([]string{"-steps", "1"}, tc.args...)...)
		if code != 2 || strings.Count(se, "\n") != 1 || !strings.Contains(se, tc.want) || strings.Contains(se, "panic:") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one line containing %q", tc.args, code, se, tc.want)
		}
	}
}

// TestLoadVersion1: the retired format is refused at the CLI with the
// versioned error.
func TestLoadVersion1(t *testing.T) {
	_, se, code := runCLI(t, "-load", filepath.Join("..", "..", "internal", "checkpoint", "testdata", "snap-v1.ck"))
	if code != 1 || !strings.Contains(se, "version 1") || !strings.Contains(se, "version 2") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming versions 1 and 2", code, se)
	}
}

// TestRebalanceSaveEvery: -rebalance runs through the same supervised loop
// as every other mode, so -save-every checkpoints and -timeline apply to it.
func TestRebalanceSaveEvery(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "f.ck")
	so, se, code := runCLI(t, "-alg", "yz", "-pa", "4", "-pb", "1", "-steps", "4",
		"-rebalance", "-timeline", "-save", ck, "-save-every", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, se)
	}
	for _, want := range []string{"at step 2", "at step 4", "-- simulated timeline --"} {
		if !strings.Contains(so, want) {
			t.Errorf("stdout lacks %q:\n%s", want, so)
		}
	}
	f, err := os.Open(ck)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := checkpoint.Read(f); err != nil {
		t.Fatalf("reading the saved checkpoint: %v", err)
	}
}
