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

	command "cadycore/cmd/cadyfleet"
)

// bin is the cadyfleet binary under test: this test binary, which TestMain
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

// baseArgs are valid flags; each case overrides one of them (the last
// occurrence of a flag wins).
func baseArgs(t *testing.T) []string {
	return []string{"-addr", "127.0.0.1:0", "-store", t.TempDir(), "-backends", "http://127.0.0.1:1"}
}

// TestInvalidFlagsAreUsageErrors: a value the coordinator would silently
// replace by its default, or a backend address that is not an absolute
// http(s) URL, is a one-line error and exit 2 — never a running daemon.
func TestInvalidFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct{ flag, val, want string }{
		{"-store", "", "-backends and -store are required"},
		{"-probe-interval", "0s", "-probe-interval = 0s"},
		{"-fail-threshold", "0", "-fail-threshold = 0"},
		{"-max-migrations", "0", "-max-migrations = 0"},
		{"-backends", "ftp://h:1", `"ftp://h:1" is not an absolute http(s) URL`},
		{"-backends", "127.0.0.1:8081", `"127.0.0.1:8081" is not an absolute http(s) URL`},
		{"-backends", "http://h:1,,http://h:2", `"" is not an absolute http(s) URL`},
	} {
		// A daemon that accepts the value serves until killed: bound the run.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, bin, append(baseArgs(t), tc.flag, tc.val)...)
		var so, se bytes.Buffer
		cmd.Stdout, cmd.Stderr = &so, &se
		code := 0
		if err := cmd.Run(); err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("running cadyfleet %s %s: %v", tc.flag, tc.val, err)
			}
			code = ee.ExitCode()
		}
		cancel()
		if code != 2 || strings.Count(se.String(), "\n") != 1 || !strings.Contains(se.String(), tc.want) || so.Len() != 0 {
			t.Errorf("%s %q: exit %d, stdout %q, stderr %q; want exit 2, no banner and one line containing %q",
				tc.flag, tc.val, code, so.String(), se.String(), tc.want)
		}
	}
}

// TestBannerAndStop: valid flags start the coordinator (an unreachable
// backend is unhealthy, not an error), and SIGTERM stops it with exit 0.
func TestBannerAndStop(t *testing.T) {
	cmd := exec.Command(bin, baseArgs(t)...)
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
	if !lines.Scan() || !strings.Contains(lines.Text(), "(1 backends, store ") {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("no banner announcing 1 backend; stderr %q", se.String())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for lines.Scan() {
		rest = append(rest, lines.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("coordinator exited with %v after SIGTERM; stderr %q", err, se.String())
	}
	if len(rest) == 0 || rest[len(rest)-1] != "cadyfleet: stopped" || se.Len() != 0 {
		t.Errorf("after SIGTERM: stdout %q, stderr %q; want a clean stop ending in \"cadyfleet: stopped\"", rest, se.String())
	}
}
