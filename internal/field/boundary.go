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
// *after* the y/z halo exchange.
func FillPolesY(f *F3, p Parity, st Stagger) {
	b := f.B
	s := float64(p)
	ny := b.Ny
	// A block needs pole ghost rows whenever its *storage* (Block.WithHalo)
	// extends past a pole, which with deep halos can happen even for blocks
	// that do not own pole rows. Mirror sources are rows inside the domain,
	// already valid after the halo exchange.
	loGhost := f.oy        // lowest stored row
	hiGhost := f.oy + f.sy // one past highest stored row
	switch st {
	case CenterY:
		// f(−1−m) = s·f(m) for every stored row −1−m < 0.
		for j := loGhost; j < 0; j++ {
			copyRowScaled(f, j, -1-j, s)
		}
		// f(ny+m) = s·f(ny−1−m) for every stored row ≥ ny.
		for j := ny; j < hiGhost; j++ {
			copyRowScaled(f, j, 2*ny-1-j, s)
		}
	case FaceY:
		// Row 0 is the north pole itself (V = 0); row ny the south pole.
		if loGhost <= 0 && 0 < hiGhost {
			zeroRow(f, 0)
		}
		for j := loGhost; j < 0; j++ {
			copyRowScaled(f, j, -j, s)
		}
		if loGhost <= ny && ny < hiGhost {
			zeroRow(f, ny)
		}
		for j := ny + 1; j < hiGhost; j++ {
			copyRowScaled(f, j, 2*ny-j, s)
		}
	}
}

// FillPolesY2 is FillPolesY for 2-D fields (CenterY scalars only, which is
// the only 2-D staggering the model uses).
func FillPolesY2(f *F2, p Parity) {
	b := f.B
	s := float64(p)
	ny := b.Ny
	for j := f.oy; j < 0; j++ {
		copyRowScaled2(f, j, -1-j, s)
	}
	for j := ny; j < f.oy+f.sy; j++ {
		copyRowScaled2(f, j, 2*ny-1-j, s)
	}
}

// FillVerticalZ fills the z halo layers beyond the model top (k < 0) and
// bottom (k ≥ Nz) with a zero-gradient mirror: f(−1−m) = f(m),
// f(Nz+m) = f(Nz−1−m). The physical boundary conditions σ̇ = 0 at σ = 0, 1
// are enforced inside the vertical operators; the mirror only keeps stencil
// sweeps branch-free.
func FillVerticalZ(f *F3) {
	nz := f.B.Nz
	for k := f.oz; k < 0; k++ {
		copyPlaneZ(f, k, -1-k)
	}
	for k := nz; k < f.oz+f.sz; k++ {
		copyPlaneZ(f, k, 2*nz-1-k)
	}
}

// FillPolesYShifted is FillPolesY with the exact spherical mirror: the
// ghost value at longitude λ comes from longitude λ + π (the antipodal
// meridian), which is what crossing a pole physically does. It requires the
// block to own full longitude circles (p_x = 1, the Y-Z decomposition) —
// the shift is then a purely local copy. Scalars mirror evenly; wind
// components flip sign (their basis vectors reverse across the pole).
func FillPolesYShifted(f *F3, p Parity, st Stagger) {
	b := f.B
	if !b.OwnsFullX() {
		panic("field: FillPolesYShifted requires full longitude circles per rank")
	}
	s := float64(p)
	ny := b.Ny
	loGhost := f.oy
	hiGhost := f.oy + f.sy
	switch st {
	case CenterY:
		for j := loGhost; j < 0; j++ {
			copyRowScaledShifted(f, j, -1-j, s)
		}
		for j := ny; j < hiGhost; j++ {
			copyRowScaledShifted(f, j, 2*ny-1-j, s)
		}
	case FaceY:
		if loGhost <= 0 && 0 < hiGhost {
			zeroRow(f, 0)
		}
		for j := loGhost; j < 0; j++ {
			copyRowScaledShifted(f, j, -j, s)
		}
		if loGhost <= ny && ny < hiGhost {
			zeroRow(f, ny)
		}
		for j := ny + 1; j < hiGhost; j++ {
			copyRowScaledShifted(f, j, 2*ny-j, s)
		}
	}
}

// FillPolesY2Shifted is the 2-D counterpart.
func FillPolesY2Shifted(f *F2, p Parity) {
	b := f.B
	if !b.OwnsFullX() {
		panic("field: FillPolesY2Shifted requires full longitude circles per rank")
	}
	s := float64(p)
	ny := b.Ny
	for j := f.oy; j < 0; j++ {
		copyRowScaledShifted2(f, j, -1-j, s)
	}
	for j := ny; j < f.oy+f.sy; j++ {
		copyRowScaledShifted2(f, j, 2*ny-1-j, s)
	}
}

// copyRowScaledShifted fills row jDst (including its x halos) with
// s·f(λ+π) of row jSrc, reading only owned longitudes of the source.
func copyRowScaledShifted(f *F3, jDst, jSrc int, s float64) {
	nx := f.B.Nx
	half := nx / 2
	for lk := 0; lk < f.sz; lk++ {
		k := lk + f.oz
		d := f.Index(f.ox, jDst, k)
		srcBase := f.Index(0, jSrc, k) // owned x origin of the source row
		for o := 0; o < f.sx; o++ {
			iGlob := o + f.ox // global longitude of the destination cell
			iSrc := ((iGlob+half)%nx + nx) % nx
			f.Data[d+o] = s * f.Data[srcBase+iSrc]
		}
	}
}

func copyRowScaledShifted2(f *F2, jDst, jSrc int, s float64) {
	nx := f.B.Nx
	half := nx / 2
	d := f.Index(f.ox, jDst)
	srcBase := f.Index(0, jSrc)
	for o := 0; o < f.sx; o++ {
		iGlob := o + f.ox
		iSrc := ((iGlob+half)%nx + nx) % nx
		f.Data[d+o] = s * f.Data[srcBase+iSrc]
	}
}

// copyRowScaled copies row jSrc to row jDst (all i in storage, all k in
// storage) scaled by s.
func copyRowScaled(f *F3, jDst, jSrc int, s float64) {
	for lk := 0; lk < f.sz; lk++ {
		k := lk + f.oz
		d := f.Index(f.ox, jDst, k)
		src := f.Index(f.ox, jSrc, k)
		for o := 0; o < f.sx; o++ {
			f.Data[d+o] = s * f.Data[src+o]
		}
	}
}

func zeroRow(f *F3, j int) {
	for lk := 0; lk < f.sz; lk++ {
		k := lk + f.oz
		d := f.Index(f.ox, j, k)
		for o := 0; o < f.sx; o++ {
			f.Data[d+o] = 0
		}
	}
}

func copyRowScaled2(f *F2, jDst, jSrc int, s float64) {
	d := f.Index(f.ox, jDst)
	src := f.Index(f.ox, jSrc)
	for o := 0; o < f.sx; o++ {
		f.Data[d+o] = s * f.Data[src+o]
	}
}

// copyPlaneZ copies the full horizontal plane at kSrc to kDst.
func copyPlaneZ(f *F3, kDst, kSrc int) {
	planeSize := f.sx * f.sy
	d := (kDst - f.oz) * planeSize
	s := (kSrc - f.oz) * planeSize
	copy(f.Data[d:d+planeSize], f.Data[s:s+planeSize])
}
