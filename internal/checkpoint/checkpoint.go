// Package checkpoint serializes model states to a compact, versioned binary
// format so long simulations can be stopped and restarted — the restart-file
// capability every production AGCM has. The format stores the global mesh
// shape and, per rank, the owned region of every component; files written by
// one decomposition can be read back under any other (a gather/scatter pair
// over the global index space). A snapshot is the whole state a run carries
// across a step boundary — ξ and the writer's state.Carry — so restoring it
// continues the operator flow bitwise with no "resume" hint from the caller.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"slices"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// magic and version identify the file format.
const (
	magic = "CADY"
	// Version 2 added the flags word and the Ĉ arrays. Version 1 is refused,
	// not upgraded: it cannot say whether its ξ owes a smoothing (~1e-3).
	version = 2
	// Header flags: PWI and DBar follow Psa; ξ owes the deferred smoothing.
	flagCarry, flagPendingSmooth = 1, 2
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Global is a gathered, decomposition-independent snapshot of ξ and of the
// writer's state.Carry.
type Global struct {
	Nx, Ny, Nz int
	// Dense arrays in (k, j, i) order; Psa in (j, i) order.
	U, V, Phi []float64
	Psa       []float64
	// PWI (Nz+1 interfaces) and DBar are a comm-avoiding writer's lagged Ĉ,
	// nil otherwise; PendingSmooth is meaningful only alongside them.
	PWI, DBar     []float64
	PendingSmooth bool
}

// Gather collects the owned regions of per-rank states into a Global
// snapshot. Every global point must be covered exactly once by the blocks
// (z-replicated surface fields are taken from the K0 = 0 blocks).
func Gather(g *grid.Grid, sts []*state.State) *Global {
	n3, n2 := g.Nx*g.Ny*g.Nz, g.Nx*g.Ny
	gl := &Global{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		U: make([]float64, n3), V: make([]float64, n3), Phi: make([]float64, n3),
		Psa: make([]float64, n2),
	}
	if c := sts[0].Carry; c != nil { // every rank runs the same integrator
		gl.PWI, gl.DBar = make([]float64, n3+n2), make([]float64, n2)
		gl.PendingSmooth = c.PendingSmooth
	}
	for _, st := range sts {
		gl.move(st, func(row, glob []float64) { copy(glob, row) }, st.B.K0 == 0)
	}
	return gl
}

// Scatter fills a rank's state (owned region only, and its Carry when the
// snapshot holds one) from the snapshot; call the integrator's SetState
// afterwards to refresh halos.
func (gl *Global) Scatter(st *state.State) error {
	b := st.B
	if b.Nx != gl.Nx || b.Ny != gl.Ny || b.Nz != gl.Nz {
		return fmt.Errorf("checkpoint: mesh %dx%dx%d does not match snapshot %dx%dx%d",
			b.Nx, b.Ny, b.Nz, gl.Nx, gl.Ny, gl.Nz)
	}
	st.Carry = nil
	if gl.PWI != nil {
		st.Carry = &state.Carry{PWI: field.NewF3(b), DBar: field.NewF2(b), PendingSmooth: gl.PendingSmooth}
	}
	gl.move(st, func(row, glob []float64) { copy(row, glob) }, true)
	return nil
}

// move applies cp to every owned x-row of every stored component of st and
// its place in the snapshot. Surface fields are z-replicated: every block
// reads them, the K0 = 0 blocks write them. PWI spans the block's owned
// interfaces plus, for the lowest block, the bottom interface Nz (stored in
// that block's z halo, and not exactly zero when p_z > 1).
func (gl *Global) move(st *state.State, cp func(row, glob []float64), surface bool) {
	b := st.B
	rows3(st.U, gl.U, b.K1, cp)
	rows3(st.V, gl.V, b.K1, cp)
	rows3(st.Phi, gl.Phi, b.K1, cp)
	if surface {
		rows3(&st.Psa.F3, gl.Psa, 1, cp)
	}
	if gl.PWI == nil {
		return
	}
	k1 := b.K1
	if k1 == b.Nz {
		k1++
	}
	rows3(st.Carry.PWI, gl.PWI, k1, cp)
	if surface {
		rows3(&st.Carry.DBar.F3, gl.DBar, 1, cp)
	}
}

// rows3 pairs the owned x-rows of levels [K0, k1) of f with their place in
// the dense (k, j, i)-ordered global array a; a surface field is its one
// level, k1 = 1.
func rows3(f *field.F3, a []float64, k1 int, cp func(row, glob []float64)) {
	b := f.B
	for k := b.K0; k < k1; k++ {
		for j := b.J0; j < b.J1; j++ {
			row := f.Row(j, k)[f.XOff(b.I0):f.XOff(b.I1)]
			cp(row, a[(k*b.Ny+j)*b.Nx+b.I0:][:len(row)])
		}
	}
}

// InitFunc returns a dycore-compatible initializer that scatters the
// snapshot into each rank's state.
func (gl *Global) InitFunc() func(g *grid.Grid, st *state.State) {
	return func(g *grid.Grid, st *state.State) {
		if err := gl.Scatter(st); err != nil {
			panic(err)
		}
	}
}

// Write serializes the snapshot: header (magic, version, dims, flags), the
// payload arrays, and a trailing CRC64 of everything before it.
func (gl *Global) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	h := crc64.New(crcTable)
	mw := io.MultiWriter(bw, h)

	if _, err := mw.Write([]byte(magic)); err != nil {
		return err
	}
	var flags uint32
	if gl.PWI != nil {
		flags = flagCarry
		if gl.PendingSmooth {
			flags |= flagPendingSmooth
		}
	}
	hdr := []uint32{version, uint32(gl.Nx), uint32(gl.Ny), uint32(gl.Nz), flags}
	if err := binary.Write(mw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for _, arr := range gl.arrays() {
		if err := binary.Write(mw, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, h.Sum64()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadFile reads and verifies the snapshot file at path.
func ReadFile(path string) (*Global, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Read deserializes and verifies a snapshot.
func Read(r io.Reader) (*Global, error) {
	br := bufio.NewReader(r)
	h := crc64.New(crcTable)
	tr := io.TeeReader(br, h)

	var head [8]byte // magic, version
	if _, err := io.ReadFull(tr, head[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", head[:4])
	}
	if ver := binary.LittleEndian.Uint32(head[4:]); ver != version {
		return nil, fmt.Errorf("checkpoint: file is format version %d, this build reads only version %d "+
			"(older snapshots record neither the carried Ĉ nor whether ξ still owes a smoothing; rerun from the initial state)",
			ver, version)
	}
	var hdr [4]uint32 // nx, ny, nz, flags
	if err := binary.Read(tr, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading header: %w", err)
	}
	nx, ny, nz, flags := int(hdr[0]), int(hdr[1]), int(hdr[2]), hdr[3]
	if nx <= 0 || ny <= 0 || nz <= 0 || nx*ny*nz > 1<<30 {
		return nil, fmt.Errorf("checkpoint: implausible mesh %dx%dx%d", nx, ny, nz)
	}
	if flags != 0 && flags != flagCarry && flags != flagCarry|flagPendingSmooth {
		return nil, fmt.Errorf("checkpoint: invalid flags %#x", flags)
	}
	gl := &Global{
		Nx: nx, Ny: ny, Nz: nz,
		U: make([]float64, nx*ny*nz), V: make([]float64, nx*ny*nz),
		Phi: make([]float64, nx*ny*nz), Psa: make([]float64, nx*ny),
	}
	if flags&flagCarry != 0 {
		gl.PWI = make([]float64, nx*ny*(nz+1))
		gl.DBar = make([]float64, nx*ny)
		gl.PendingSmooth = flags&flagPendingSmooth != 0
	}
	for _, arr := range gl.arrays() {
		if err := binary.Read(tr, binary.LittleEndian, arr); err != nil {
			return nil, fmt.Errorf("checkpoint: reading data: %w", err)
		}
	}
	want := h.Sum64()
	var got uint64
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("checkpoint: reading checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (file corrupt)")
	}
	return gl, nil
}

// arrays lists the payload arrays in file order (nil ones write nothing).
func (gl *Global) arrays() [][]float64 {
	return [][]float64{gl.U, gl.V, gl.Phi, gl.Psa, gl.PWI, gl.DBar}
}

// Equal reports whether two snapshots are bitwise identical, carried Ĉ and
// pending-smoothing bit included.
func (gl *Global) Equal(o *Global) bool {
	if gl.Nx != o.Nx || gl.Ny != o.Ny || gl.Nz != o.Nz || gl.PendingSmooth != o.PendingSmooth {
		return false
	}
	a, b := gl.arrays(), o.arrays()
	for n := range a {
		if !slices.Equal(a[n], b[n]) {
			return false
		}
	}
	return true
}
