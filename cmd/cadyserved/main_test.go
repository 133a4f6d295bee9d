package main_test

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// bin is the cadyserved binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cadyserved-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "cadyserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building cadyserved: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
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
