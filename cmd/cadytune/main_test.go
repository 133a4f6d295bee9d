package main_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	command "cadycore/cmd/cadytune"
)

// bin is the cadytune binary under test: this test binary, which TestMain
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

// runCLI runs a subcommand on the small test mesh and returns its streams
// and exit code. Later flags override the mesh defaults.
func runCLI(t *testing.T, sub string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	all := append([]string{sub, "-p", "4", "-nx", "48", "-ny", "24", "-nz", "8", "-m", "2",
		"-topk", "2", "-pilot-steps", "1"}, args...)
	cmd := exec.Command(bin, all...)
	cmd.Dir = t.TempDir() // bench writes its report into the working directory
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running cadytune %v: %v", all, err)
		}
		code = ee.ExitCode()
	}
	return so.String(), se.String(), code
}

// TestInvalidInputIsUsageError: a mesh, configuration or step count the
// tuner cannot use is a one-line error and exit 2, never a panic or a
// silently substituted value.
func TestInvalidInputIsUsageError(t *testing.T) {
	for _, tc := range []struct {
		sub, flag, val, want string
	}{
		{"plan", "-m", "0", "M = 0"},
		{"plan", "-nx", "4", "Nx = 4"},
		{"plan", "-nz", "0", "Nz = 0"},
		{"run", "-steps", "0", "-steps = 0"},
		{"bench", "-steps", "0", "-steps = 0"},
	} {
		_, se, code := runCLI(t, tc.sub, tc.flag, tc.val)
		if code != 2 || strings.Count(se, "\n") != 1 || !strings.Contains(se, tc.want) {
			t.Errorf("%s %s %s: exit %d, stderr %q; want exit 2 and one line containing %q",
				tc.sub, tc.flag, tc.val, code, se, tc.want)
		}
	}
}

// TestPlanPrintsCommAvoidingPlan: the smoke request plans the
// communication-avoiding scheme on all four ranks.
func TestPlanPrintsCommAvoidingPlan(t *testing.T) {
	so, se, code := runCLI(t, "plan")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, se)
	}
	var p struct {
		Scheme string `json:"scheme"`
		PA, PB int
	}
	if err := json.Unmarshal([]byte(so), &p); err != nil {
		t.Fatalf("plan is not JSON: %v\n%s", err, so)
	}
	if p.Scheme != "ca" || p.PA*p.PB != 4 {
		t.Errorf("planned %+v, want scheme ca on 4 ranks", p)
	}
}
