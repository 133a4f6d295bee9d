package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// FuzzParseSnapName drives the store's filename parser with arbitrary
// directory entries. The invariants: never panic, never accept a name that
// could not spell a snapshot file, and stay consistent with the canonical
// path() spelling for store-valid keys.
func FuzzParseSnapName(f *testing.F) {
	f.Add("job-1@00000042.ck")
	f.Add("k@0.ck")
	f.Add("a@b@00000007.ck") // '@' in the key: LastIndex split
	f.Add("@00000001.ck")    // empty key must be rejected
	f.Add("k@-3.ck")
	f.Add("k@00000042.ck.tmp")
	f.Add(strings.Repeat("x", 200) + "@1.ck")
	f.Fuzz(func(t *testing.T, name string) {
		key, step, ok := parseSnapName(name)
		if !ok {
			return
		}
		if key == "" {
			t.Fatalf("parseSnapName(%q) accepted an empty key", name)
		}
		if step < 0 {
			t.Fatalf("parseSnapName(%q) accepted negative step %d", name, step)
		}
		// The accepted name must literally be key + "@" + digits + ".ck".
		rest := strings.TrimPrefix(name, key+"@")
		if rest == name || !strings.HasSuffix(rest, ".ck") {
			t.Fatalf("parseSnapName(%q) = (%q, %d) does not re-assemble", name, key, step)
		}
		// A store-valid key must round-trip through the canonical path()
		// spelling at the parsed step.
		if validKey(key) == nil {
			canon := fmt.Sprintf("%s@%08d.ck", key, step)
			k2, s2, ok2 := parseSnapName(canon)
			if !ok2 || k2 != key || s2 != step {
				t.Fatalf("canonical %q round-trips to (%q, %d, %v), want (%q, %d)",
					canon, k2, s2, ok2, key, step)
			}
		}
	})
}

// FuzzDirStoreLatest plants arbitrary bytes as the newest snapshot file of a
// key that also has one known-good committed snapshot below it. Latest must
// either accept the planted file (it happens to parse and checksum) or fall
// back to the good boundary — never panic, and never fail while a valid
// snapshot exists.
func FuzzDirStoreLatest(f *testing.F) {
	good := fuzzSeedSnapBytes()
	f.Add([]byte("torn"))
	f.Add([]byte{})
	f.Add(good)                       // a byte-exact valid snapshot
	f.Add(good[:len(good)-1])         // truncated tail: CRC must catch it
	f.Add(append([]byte{0}, good...)) // shifted header
	v1 := append([]byte(nil), good[:20]...)
	v1[4] = 1 // the retired version-1 header: magic, version, dims
	f.Add(v1)
	f.Add(fuzzCarriedSnapBytes()) // version 2 with the carried Ĉ and the pending bit
	f.Fuzz(func(t *testing.T, planted []byte) {
		dir := t.TempDir()
		s, err := NewDirStore(dir)
		if err != nil {
			t.Fatalf("NewDirStore: %v", err)
		}
		gl := fuzzSeedSnap()
		if err := s.Put("k", 2, gl); err != nil {
			t.Fatalf("Put: %v", err)
		}
		//cadyvet:volatile deliberately plants arbitrary, possibly-torn bytes to fuzz Latest's fallback walk
		if err := os.WriteFile(filepath.Join(dir, "k@00000009.ck"), planted, 0o644); err != nil {
			t.Fatalf("planting fuzz file: %v", err)
		}
		got, step, err := s.Latest("k")
		if err != nil {
			t.Fatalf("Latest failed with a valid snapshot on disk: %v", err)
		}
		switch step {
		case 9:
			// The planted bytes verified; nothing more to check.
		case 2:
			if !got.Equal(gl) {
				t.Fatalf("fallback snapshot at step 2 differs from what Put wrote")
			}
		default:
			t.Fatalf("Latest picked step %d, want 9 (planted verifies) or 2 (fallback)", step)
		}
	})
}

// fuzzSeedSnap builds one small valid snapshot without a *testing.T, so the
// corpus seeding above can serialize it too.
func fuzzSeedSnap() *Global {
	g := grid.New(16, 8, 4)
	b := field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
	st := state.New(b)
	heldsuarez.InitialState(g, st)
	return Gather(g, []*state.State{st})
}

func fuzzSeedSnapBytes() []byte { return snapBytes(fuzzSeedSnap()) }

// fuzzCarriedSnapBytes is the seed snapshot as a comm-avoiding writer at a
// step boundary would serialize it.
func fuzzCarriedSnapBytes() []byte {
	gl := fuzzSeedSnap()
	gl.PWI = make([]float64, gl.Nx*gl.Ny*(gl.Nz+1))
	gl.DBar = make([]float64, gl.Nx*gl.Ny)
	gl.PendingSmooth = true
	return snapBytes(gl)
}

func snapBytes(gl *Global) []byte {
	var buf bytes.Buffer
	if err := gl.Write(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
