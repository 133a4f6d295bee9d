package field

// Boundary fills for the non-periodic directions. These are purely local
// operations executed by the ranks whose blocks touch a pole (y) or the model
// top/bottom (z) after halo exchange, so that stencil kernels can sweep the
// full computation region without branching on boundaries.
//
// Pole condition (documented substitution, see DESIGN.md §2): values are
// mirrored across the pole without the longitude shift of the exact spherical
// mirror; scalar fields mirror evenly (Even) and wind components mirror with
// a sign flip (Odd), which keeps cross-polar flow antisymmetric and is local
// in longitude under every decomposition.
//
// Every fill is bounded by a rect: it refreshes exactly the ghosts whose
// mirror (or periodic) source lies in the rect's rows and levels, and leaves
// every other stored cell as it is. An update that wrote rect r therefore
// refreshes only what it made stale; the storage rect (Block.WithHalo)
// refreshes every ghost, which is what the unbounded entry points do.

// Parity selects the sign of the mirrored value at a pole.
type Parity int

const (
	// Even mirrors f(ghost) = +f(interior): scalars (Φ, p'_sa, P, T…).
	Even Parity = 1
	// Odd mirrors f(ghost) = −f(interior): velocity components (U, V).
	Odd Parity = -1
)

// Stagger describes where a field lives relative to cell centers in y.
type Stagger int

const (
	// CenterY fields live at latitude cell centers θ_j = (j+1/2)Δθ
	// (scalars and U).
	CenterY Stagger = iota
	// FaceY fields live at latitude interfaces θ_j = j·Δθ (V); row 0 is the
	// north pole itself and the (virtual) row Ny is the south pole.
	FaceY
)

// FillBounds refreshes every locally computable ghost of f whose source lies
// in r's rows and levels, in the order the sources feed each other:
//
//   - the periodic x wrap of r's stored rows, when the block owns full
//     longitude circles (otherwise x halos come by communication);
//   - the vertical mirror levels sourced from r's levels, over r's rows;
//   - the pole mirror rows sourced from r's rows, over r's levels plus the
//     vertical ghosts sourced from them. A FaceY pole row is zeroed over the
//     same levels when r reaches it: row 0 when it is one of r's rows, the
//     virtual row Ny when row Ny−1 is.
//
// r's x extent is ignored: a row is wrapped across the whole circle. shifted
// selects the exact spherical pole mirror of FillPolesYShifted. Every other
// stored cell keeps its value, so after an update of r the cells a stencil
// over r shrunk by its radius reads are current, and nothing else is touched.
func FillBounds(f *F3, p Parity, st Stagger, shifted bool, r Rect) {
	if f.B.OwnsFullX() {
		f.wrapX(r)
	}
	mirrorZ(f, r)
	mirrorPoles(f, p, st, shifted, r)
}

// FillPolesY fills the y halo rows beyond the poles for blocks touching
// them; interior blocks are untouched. For FaceY fields it also enforces the
// physical polar condition V = 0 on the pole rows themselves.
//
// CenterY mirror about the polar interface:  f(−1−m) = s·f(m),
// f(Ny+m) = s·f(Ny−1−m).
// FaceY mirror about the pole point:         f(0) = 0, f(−m) = s·f(m),
// and about the virtual south pole:          f(Ny+m) = s·f(Ny−m) with the
// convention f(Ny) = 0 handled by the k of the stencil code via VAtSouthPole.
//
// The mirror sources may live in already-exchanged halo rows, so call this
// *after* the y/z halo exchange. It covers every stored row and level.
func FillPolesY(f *F3, p Parity, st Stagger) { mirrorPoles(f, p, st, false, f.B.WithHalo()) }

// FillPolesY2 is FillPolesY on a 2-D field's level (CenterY scalars only,
// which is the only 2-D staggering the model uses).
func FillPolesY2(f *F2, p Parity) { FillPolesY(&f.F3, p, CenterY) }

// FillVerticalZ fills the z halo layers beyond the model top (k < 0) and
// bottom (k ≥ Nz) with a zero-gradient mirror: f(−1−m) = f(m),
// f(Nz+m) = f(Nz−1−m), over every stored row. The physical boundary
// conditions σ̇ = 0 at σ = 0, 1 are enforced inside the vertical operators;
// the mirror only keeps stencil sweeps branch-free.
func FillVerticalZ(f *F3) { mirrorZ(f, f.B.WithHalo()) }

// FillPolesYShifted is FillPolesY with the exact spherical mirror: the
// ghost value at longitude λ comes from longitude λ + π (the antipodal
// meridian), which is what crossing a pole physically does. It requires the
// block to own full longitude circles (p_x = 1, the Y-Z decomposition) —
// the shift is then a purely local copy. Scalars mirror evenly; wind
// components flip sign (their basis vectors reverse across the pole).
func FillPolesYShifted(f *F3, p Parity, st Stagger) { mirrorPoles(f, p, st, true, f.B.WithHalo()) }

// mirrorZ fills the ghost levels whose mirror source lies in r's levels, over
// r's stored rows (full storage width, x halos included).
func mirrorZ(f *F3, r Rect) {
	j0, j1 := max(r.J0, f.oy), min(r.J1, f.oy+f.sy)
	if j0 >= j1 {
		return
	}
	n := (j1 - j0) * f.sx
	for k := f.oz; k < f.oz+f.sz; k++ {
		src := mirrorLevel(k, f.B.Nz)
		if src == k || src < r.K0 || src >= r.K1 {
			continue
		}
		d := ((k-f.oz)*f.sy + j0 - f.oy) * f.sx
		s := ((src-f.oz)*f.sy + j0 - f.oy) * f.sx
		copy(f.Data[d:d+n], f.Data[s:s+n])
	}
}

// mirrorLevel returns the level whose value stored level k holds after the
// vertical mirror: k itself inside the column.
func mirrorLevel(k, nz int) int {
	switch {
	case k < 0:
		return -1 - k
	case k >= nz:
		return 2*nz - 1 - k
	}
	return k
}

func mirrorPoles(f *F3, p Parity, st Stagger, shifted bool, r Rect) {
	if shifted && !f.B.OwnsFullX() {
		panic("field: the shifted pole mirror requires full longitude circles per rank")
	}
	s := float64(p)
	ny := f.B.Ny
	// A block needs pole ghost rows whenever its *storage* (Block.WithHalo)
	// extends past a pole, which with deep halos can happen even for blocks
	// that do not own pole rows. Mirror sources are rows inside the domain,
	// already valid after the halo exchange.
	lo, hi := f.oy, f.oy+f.sy // stored rows
	switch st {
	case CenterY:
		for j := lo; j < 0; j++ {
			mirrorRow(f, j, -1-j, s, shifted, r)
		}
		for j := ny; j < hi; j++ {
			mirrorRow(f, j, 2*ny-1-j, s, shifted, r)
		}
	case FaceY:
		// Row 0 is the north pole itself (V = 0); row ny the south pole.
		if lo <= 0 && 0 < hi {
			mirrorRow(f, 0, 0, 0, false, r)
		}
		for j := lo; j < 0; j++ {
			mirrorRow(f, j, -j, s, shifted, r)
		}
		if lo <= ny && ny < hi {
			mirrorRow(f, ny, ny-1, 0, false, r)
		}
		for j := ny + 1; j < hi; j++ {
			mirrorRow(f, j, 2*ny-j, s, shifted, r)
		}
	}
}

// mirrorRow sets row jDst ← s·row jSrc (x halos included; the shifted mirror
// reads the antipodal owned longitude) on every stored level sourced in r,
// provided jSrc is one of r's rows. s = 0 zeroes a pole row: its source is
// then only the row that places it inside r.
func mirrorRow(f *F3, jDst, jSrc int, s float64, shifted bool, r Rect) {
	if jSrc < r.J0 || jSrc >= r.J1 {
		return
	}
	for k := f.oz; k < f.oz+f.sz; k++ {
		if src := mirrorLevel(k, f.B.Nz); src < r.K0 || src >= r.K1 {
			continue
		}
		dst := f.Row(jDst, k)
		switch {
		case s == 0:
			clear(dst)
		case shifted:
			shiftRow(dst, f.Row(jSrc, k)[f.XOff(0):], f.ox, f.B.Nx, s)
		default:
			scaleRow(dst, f.Row(jSrc, k), s)
		}
	}
}

// scaleRow sets dst ← s·src.
func scaleRow(dst, src []float64, s float64) {
	src = src[:len(dst)]
	for o := range dst {
		dst[o] = s * src[o]
	}
}

// shiftRow sets the storage row dst, whose first cell is longitude ox, to
// s·f(λ+π) read from the owned longitudes [0, nx) of the source row.
func shiftRow(dst, owned []float64, ox, nx int, s float64) {
	half := nx / 2
	for o := range dst {
		iSrc := ((o+ox+half)%nx + nx) % nx
		dst[o] = s * owned[iSrc]
	}
}
