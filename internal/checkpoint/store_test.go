package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// storeSnap builds a small real snapshot to round-trip through the store.
func storeSnap(t *testing.T, scale float64) *Global {
	t.Helper()
	g := grid.New(16, 8, 4)
	b := field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
	st := state.New(b)
	heldsuarez.InitialState(g, st)
	gl := Gather(g, []*state.State{st})
	for i := range gl.U {
		gl.U[i] *= scale
	}
	return gl
}

func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}

	if _, _, err := s.Latest("job-1"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Latest on empty store: %v, want ErrNoSnapshot", err)
	}

	first := storeSnap(t, 1)
	if err := s.Put("job-1", 3, first); err != nil {
		t.Fatalf("Put: %v", err)
	}
	second := storeSnap(t, 2)
	if err := s.Put("job-1", 7, second); err != nil {
		t.Fatalf("Put step 7: %v", err)
	}
	gl, step, err := s.Latest("job-1")
	if err != nil || step != 7 {
		t.Fatalf("Latest: step %d err %v, want 7", step, err)
	}
	if !gl.Equal(second) {
		t.Fatal("Latest returned a different snapshot than Put stored")
	}

	// Put prunes superseded steps: only the newest file remains.
	ents, err := os.ReadDir(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var files []string
	for _, e := range ents {
		files = append(files, e.Name())
	}
	if len(files) != 1 || files[0] != "job-1@00000007.ck" {
		t.Fatalf("store contents after prune: %v", files)
	}
}

func TestDirStoreSkipsCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	good := storeSnap(t, 1)
	if err := s.Put("k", 2, good); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Plant unreadable "newer" snapshots beside it: a torn write, and a
	// well-formed file in the retired version-1 format.
	v1, err := os.ReadFile(filepath.Join("testdata", "snap-v1.ck"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"k@00000009.ck": []byte("torn"), "k@00000007.ck": v1} {
		//cadyvet:volatile deliberately plants non-durable unreadable files to prove Latest falls back past them
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatalf("planting %s: %v", name, err)
		}
	}
	gl, step, err := s.Latest("k")
	if err != nil {
		t.Fatalf("Latest with corrupt newest: %v", err)
	}
	if step != 2 || !gl.Equal(good) {
		t.Fatalf("Latest picked step %d, want fallback to the valid step 2", step)
	}
}

func TestDirStoreSharedAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore a: %v", err)
	}
	b, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore b: %v", err)
	}
	gl := storeSnap(t, 3)
	if err := a.Put("shared", 5, gl); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, step, err := b.Latest("shared")
	if err != nil || step != 5 || !got.Equal(gl) {
		t.Fatalf("second handle sees step %d err %v", step, err)
	}
}

func TestDirStoreRejectsBadKeys(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	gl := storeSnap(t, 1)
	for _, key := range []string{"", "a/b", "../escape", "sp ace", string(make([]byte, 200))} {
		if err := s.Put(key, 1, gl); err == nil {
			t.Fatalf("Put accepted invalid key %q", key)
		}
		if _, _, err := s.Latest(key); err == nil {
			t.Fatalf("Latest accepted invalid key %q", key)
		}
	}
}

// TestConcurrentWriteAtomicOnePath: writers racing on one path — a zombie
// and a migrated copy of a job putting the same <key>@<step>.ck — each
// commit a whole file: every call succeeds, the file reads back verified,
// and no temp file is left behind.
func TestConcurrentWriteAtomicOnePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job@00000001.ck")
	gls := []*Global{storeSnap(t, 1), storeSnap(t, 2), storeSnap(t, 3), storeSnap(t, 4)}
	const rounds = 200
	for r := 0; r < rounds; r++ {
		errs := make(chan error, len(gls))
		for _, gl := range gls {
			go func() { errs <- WriteAtomic(path, gl) }()
		}
		for range gls {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: WriteAtomic: %v", r, err)
			}
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("round %d: committed file does not verify: %v", r, err)
		}
		if !slices.ContainsFunc(gls, got.Equal) {
			t.Fatalf("round %d: committed file is none of the writers' snapshots", r)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestMkdirDurable: the durable mkdir creates every missing level, is
// idempotent on an existing directory (also under concurrent callers), and
// refuses a path that is, or lies under, a regular file.
func TestMkdirDurable(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "c")
	for i := 0; i < 2; i++ {
		if err := MkdirDurable(dir); err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Fatalf("call %d: %s not a directory (%v)", i+1, dir, err)
		}
	}
	errs := make(chan error, 4)
	for i := 0; i < cap(errs); i++ {
		go func() { errs <- MkdirDurable(filepath.Join(root, "x", "y")) }()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent create: %v", err)
		}
	}
	file := filepath.Join(root, "f")
	if err := WriteFileAtomic(file, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{file, filepath.Join(file, "sub")} {
		if err := MkdirDurable(p); err == nil {
			t.Errorf("MkdirDurable(%s) over a regular file succeeded", p)
		}
	}
}
