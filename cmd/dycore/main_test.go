package main_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cadycore/internal/checkpoint"
)

// bin is the dycore binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dycore-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "dycore")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building dycore: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
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
