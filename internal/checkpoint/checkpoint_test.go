package checkpoint

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// BlockOf is the trivial serial block of a mesh.
func BlockOf(g *grid.Grid) field.Block {
	return field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
}

func randomGlobal(g *grid.Grid, seed int64) *Global {
	rng := rand.New(rand.NewSource(seed))
	st := state.New(BlockOf(g))
	for i := range st.U.Data {
		st.U.Data[i] = rng.NormFloat64()
		st.V.Data[i] = rng.NormFloat64()
		st.Phi.Data[i] = rng.NormFloat64()
	}
	for i := range st.Psa.Data {
		st.Psa.Data[i] = rng.NormFloat64() * 100
	}
	return Gather(g, []*state.State{st})
}

// randomCarried is randomGlobal as a comm-avoiding writer would gather it:
// with a random Ĉ (bottom interface included) and the given pending bit.
func randomCarried(g *grid.Grid, seed int64, pending bool) *Global {
	gl := randomGlobal(g, seed)
	rng := rand.New(rand.NewSource(seed + 1000))
	gl.PWI = make([]float64, g.Nx*g.Ny*(g.Nz+1))
	gl.DBar = make([]float64, g.Nx*g.Ny)
	for i := range gl.PWI {
		gl.PWI[i] = rng.NormFloat64()
	}
	for i := range gl.DBar {
		gl.DBar[i] = rng.NormFloat64()
	}
	gl.PendingSmooth = pending
	return gl
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := grid.New(16, 10, 4)
	for _, c := range []struct {
		name string
		gl   *Global
	}{
		{"xi-only", randomGlobal(g, 1)},
		{"carried", randomCarried(g, 1, false)},
		{"carried-pending", randomCarried(g, 1, true)},
	} {
		var buf bytes.Buffer
		if err := c.gl.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.gl.Equal(back) {
			t.Errorf("%s: roundtrip lost data", c.name)
		}
	}
}

// TestEqualComparesCarry: the carried Ĉ and the pending bit are part of a
// snapshot's identity.
func TestEqualComparesCarry(t *testing.T) {
	g := grid.New(16, 10, 4)
	a := randomCarried(g, 5, true)
	if !a.Equal(randomCarried(g, 5, true)) {
		t.Fatal("identical carried snapshots compare unequal")
	}
	if a.Equal(randomGlobal(g, 5)) || randomGlobal(g, 5).Equal(a) {
		t.Error("a snapshot with Ĉ equals one without")
	}
	if a.Equal(randomCarried(g, 5, false)) {
		t.Error("pending-smoothing bit ignored")
	}
	b := randomCarried(g, 5, true)
	b.PWI[len(b.PWI)-1]++ // bottom interface
	c := randomCarried(g, 5, true)
	c.DBar[0]++
	if a.Equal(b) || a.Equal(c) {
		t.Error("a differing Ĉ value ignored")
	}
}

// TestVersion1Rejected: a verbatim file written by the last version-1 build
// is refused with an error naming both versions — never guessed at.
func TestVersion1Rejected(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "snap-v1.ck"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = Read(f)
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("Read(v1 file) = %v, want an error naming version 1 and version 2", err)
	}
}

// TestInvalidFlagsRejected: a pending-smoothing bit without a carried Ĉ, or
// an unknown bit, is a malformed header even under a valid checksum.
func TestInvalidFlagsRejected(t *testing.T) {
	g := grid.New(16, 10, 4)
	var buf bytes.Buffer
	if err := randomGlobal(g, 6).Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, flags := range []byte{2, 4, 7} {
		data := append([]byte(nil), buf.Bytes()...)
		data[20] = flags // magic, version, nx, ny, nz, then flags
		if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "flags") {
			t.Errorf("flags %#x: Read = %v, want an invalid-flags error", flags, err)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	g := grid.New(16, 10, 4)
	gl := randomGlobal(g, 2)
	var buf bytes.Buffer
	if err := gl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("CA"))); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

func TestGatherScatterAcrossDecompositions(t *testing.T) {
	// A snapshot taken under one decomposition must restore exactly under
	// another.
	g := grid.New(16, 12, 6)
	gl := randomCarried(g, 3, true)

	// Scatter to a 2x2 Y-Z decomposition, gather back, compare.
	const py, pz = 2, 2
	w := comm.NewWorld(py*pz, comm.Zero())
	parts := make([]*state.State, py*pz)
	w.Run(func(c *comm.Comm) {
		cy := c.Rank() % py
		cz := c.Rank() / py
		b := BlockOf(g)
		b.J0, b.J1 = cy*g.Ny/py, (cy+1)*g.Ny/py
		b.K0, b.K1 = cz*g.Nz/pz, (cz+1)*g.Nz/pz
		st := state.New(b)
		if err := gl.Scatter(st); err != nil {
			t.Error(err)
		}
		parts[c.Rank()] = st
	})
	back := Gather(g, parts)
	if !gl.Equal(back) {
		t.Fatal("scatter/gather across decomposition lost data")
	}
}

func TestMeshMismatchRejected(t *testing.T) {
	g := grid.New(16, 10, 4)
	gl := randomGlobal(g, 4)
	other := grid.New(32, 10, 4)
	st := state.New(BlockOf(other))
	if err := gl.Scatter(st); err == nil {
		t.Fatal("mesh mismatch accepted")
	}
}

func TestRestartContinuesRun(t *testing.T) {
	// Checkpoint-restart invariance: running 4 steps straight must equal
	// running 2, checkpointing (through the serialized format), and running
	// 2 more — bitwise, because the restart restores the exact state (the
	// only non-state memory, the Ĉ cache, is rebuilt by SetState exactly as
	// at a cold start, and the first step's η1 then uses Ĉ(ξ) on both
	// paths... so we compare with ExactC to make the iteration memoryless).
	g := grid.New(16, 10, 4)
	cfg := dycore.DefaultConfig()
	cfg.M = 1
	cfg.Dt1, cfg.Dt2 = 30, 180
	cfg.ExactC = true
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 2, PB: 1, Cfg: cfg}

	full := dycore.Run(set, g, comm.Zero(), heldsuarez.InitialState, 4)

	half := dycore.Run(set, g, comm.Zero(), heldsuarez.InitialState, 2)
	snap := Gather(g, half.Finals)
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed := dycore.Run(set, g, comm.Zero(), restored.InitFunc(), 2)

	if d := dycore.MaxDiffGlobal(g, full.Finals, resumed.Finals); d != 0 {
		t.Errorf("restart changed the trajectory by %g (want bitwise resume)", d)
	}
}
