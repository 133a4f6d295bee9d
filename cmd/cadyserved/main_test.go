package main_test

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	command "cadycore/cmd/cadyserved"
)

// bin is the cadyserved binary under test: this test binary, which TestMain
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

// TestInvalidFlagsAreUsageErrors: a worker or queue count the server would
// silently replace by its default, or a drain timeout that expires before any
// job can checkpoint, is a one-line error and exit 2 — never a daemon that
// runs something other than what its banner announces.
func TestInvalidFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct{ flag, val, want string }{
		{"-workers", "-3", "-workers = -3"},
		{"-queue", "0", "-queue = 0"},
		{"-drain-timeout", "-5s", "-drain-timeout = -5s"},
		{"-quota", "-1", "default quota -1, want >= 0"},
		{"-quotas", "vip=4x", `-quotas: quota "4x" for tenant vip`},
		{"-quotas", "vip=0", "quota 0 for tenant vip, want >= 1"},
		{"-quotas", "vip", `-quotas: bad entry "vip"`},
		{"-classes", "vip=urgent", `class "urgent" for tenant vip, want high, normal or low`},
	} {
		// A daemon that accepts the value serves until killed: bound the run.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", tc.flag, tc.val)
		var so, se bytes.Buffer
		cmd.Stdout, cmd.Stderr = &so, &se
		code := 0
		if err := cmd.Run(); err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("running cadyserved %s %s: %v", tc.flag, tc.val, err)
			}
			code = ee.ExitCode()
		}
		cancel()
		if code != 2 || strings.Count(se.String(), "\n") != 1 || !strings.Contains(se.String(), tc.want) || so.Len() != 0 {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q; want exit 2, no banner and one line containing %q",
				tc.flag, tc.val, code, so.String(), se.String(), tc.want)
		}
	}
}

// TestBannerAndDrain: valid flags are announced as they run, and SIGTERM
// drains the idle daemon and stops it with exit 0. A negative -max-restarts
// keeps its documented meaning (no restarts) and is accepted.
func TestBannerAndDrain(t *testing.T) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "3", "-queue", "5", "-max-restarts", "-1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var se bytes.Buffer
	cmd.Stderr = &se
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer killer.Stop()
	lines := bufio.NewScanner(out)
	if !lines.Scan() {
		cmd.Wait()
		t.Fatalf("no banner; stderr %q", se.String())
	}
	if banner := lines.Text(); !strings.Contains(banner, "(3 workers, queue 5)") {
		t.Errorf("banner %q does not announce 3 workers and queue 5", banner)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for lines.Scan() {
		rest = append(rest, lines.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited with %v after SIGTERM; stderr %q", err, se.String())
	}
	if len(rest) == 0 || rest[len(rest)-1] != "cadyserved: stopped" || se.Len() != 0 {
		t.Errorf("after SIGTERM: stdout %q, stderr %q; want a clean drain ending in \"cadyserved: stopped\"", rest, se.String())
	}
}
