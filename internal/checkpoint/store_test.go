package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
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

	keys, err := s.Keys()
	if err != nil || len(keys) != 1 || keys[0] != "job-1" {
		t.Fatalf("Keys: %v (%v)", keys, err)
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
