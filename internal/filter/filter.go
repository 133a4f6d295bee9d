// Package filter implements the Fourier polar filtering operator F̃ of the
// dynamical core (paper Sections 3 and 4.2). High-frequency zonal waves are
// removed from tendencies at high latitudes to relax the CFL restriction
// caused by the convergence of meridians near the poles.
//
// Two execution paths exist, mirroring the paper's analysis:
//
//   - Serial per-latitude filtering when a rank owns a full latitude circle
//     (p_x = 1, the Y-Z decomposition): no communication at all. This is the
//     configuration the communication-avoiding algorithm selects (Section
//     4.2.1, Theorem 4.1 with η_x = 0).
//   - Distributed filtering when x is decomposed (the X-Y decomposition):
//     a transpose (Alltoall on the x communicator) gathers complete rows,
//     each rank filters its share, and a second transpose scatters them
//     back. This is the collective whose cost dominates the lower bound
//     (Theorem 4.1 with η_x = 1) and which the paper's scheme eliminates.
package filter

import (
	"math"

	"cadycore/internal/comm"
	"cadycore/internal/fft"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/topo"
)

// Filter holds the per-latitude wavenumber cutoffs and the FFT plan. The
// transform runs on the real-input half-spectrum fast path (internal/fft
// RealPlan), which does about half the complex work per row; the scratch
// buffers below make every row transform allocation-free.
//
// A Filter is NOT safe for concurrent use: FilterRow and the Apply* methods
// share the per-filter scratch. Give each goroutine its own Filter (plans
// are cheap relative to a field) when filtering in parallel.
type Filter struct {
	g *grid.Grid
	// mmax[j] is the highest zonal wavenumber retained at latitude row j;
	// rows with mmax[j] == Nx/2 are not filtered at all.
	mmax    []int
	rp      *fft.RealPlan
	spec    []complex128 // half spectrum, Nx/2+1
	scratch []complex128 // RealPlan work space
	batch   batchScratch // reusable ApplyDistBatch transpose buffers
}

// New builds a filter that leaves latitudes equatorward of cutoffLatDeg
// untouched and filters poleward rows to m ≤ (Nx/2)·sinθ/sin θ_c (at least
// wavenumber 1 is always kept). The IAP-AGCM filter strength profile has the
// same shape; 60° is a realistic default cutoff.
func New(g *grid.Grid, cutoffLatDeg float64) *Filter {
	rp := fft.NewRealPlan(g.Nx)
	f := &Filter{
		g: g, rp: rp, mmax: make([]int, g.Ny),
		spec:    make([]complex128, rp.SpecLen()),
		scratch: make([]complex128, rp.ScratchLen()),
	}
	sinc := math.Sin((90 - cutoffLatDeg) * math.Pi / 180) // sin of cutoff colatitude
	half := g.Nx / 2
	for j := 0; j < g.Ny; j++ {
		s := g.SinC[j]
		if s >= sinc {
			f.mmax[j] = half
			continue
		}
		m := int(float64(half) * s / sinc)
		if m < 1 {
			m = 1
		}
		f.mmax[j] = m
	}
	return f
}

// StableDt returns the largest time step (seconds) a signal of the given
// phase speed (m/s) admits under a unit-Courant zonal CFL condition, with
// and without this filter. Without filtering the polar rows dominate
// (Δx = a·sinθ·Δλ shrinks toward the poles); with filtering, a row that
// keeps only m ≤ m_max behaves like a row with effective spacing
// Δx·(Nx/2)/m_max, so the cutoff latitude sets the limit — the
// quantitative version of the paper's "severe CFL restriction … Fourier
// filtering" discussion (Section 2.2).
func (f *Filter) StableDt(speed float64) (unfiltered, filtered float64) {
	g := f.g
	const a = 6.371e6
	minDx := a * g.SinC[0] * g.DLambda // smallest zonal spacing (polar row)
	minEff := 1e30
	half := float64(g.Nx / 2)
	for j := 0; j < g.Ny; j++ {
		dx := a * g.SinC[j] * g.DLambda
		eff := dx * half / float64(f.mmax[j])
		if dx < minDx {
			minDx = dx
		}
		if eff < minEff {
			minEff = eff
		}
	}
	return minDx / speed, minEff / speed
}

// MMax returns the retained-wavenumber cutoff for (possibly ghost) latitude
// row j; ghost rows beyond a pole use their mirror row's cutoff, consistent
// with the mirror boundary fill.
func (f *Filter) MMax(j int) int {
	ny := f.g.Ny
	if j < 0 {
		j = -1 - j
	}
	if j >= ny {
		j = 2*ny - 1 - j
	}
	return f.mmax[j]
}

// Active reports whether row j is filtered at all.
func (f *Filter) Active(j int) bool { return f.MMax(j) < f.g.Nx/2 }

// FilterRow low-passes one full latitude row in place (len = Nx). It is
// allocation-free but uses the Filter's scratch, so it must not be called
// concurrently on the same Filter.
func (f *Filter) FilterRow(row []float64, j int) {
	mmax := f.MMax(j)
	nx := f.g.Nx
	if mmax >= nx/2 {
		return
	}
	f.rp.Forward(row, f.spec, f.scratch)
	// Zeroing half-spectrum coefficient k kills wavenumbers k and Nx−k at
	// once — the same set the full-spectrum loop m ∈ [mmax+1, Nx−mmax−1]
	// removed.
	for m := mmax + 1; m <= nx/2; m++ {
		f.spec[m] = 0
	}
	f.rp.Inverse(f.spec, row, f.scratch)
}

// Apply filters every (j, k) row of fld inside rect. The field's storage
// must span the full longitude circle (p_x = 1); rows whose latitude is
// below the cutoff are skipped at zero cost. Returns the number of
// transformed rows (for compute accounting: each costs ~2·Nx·log2(Nx)).
func (f *Filter) Apply(fld *field.F3, rect field.Rect) int {
	if !fld.B.OwnsFullX() {
		panic("filter: serial Apply requires a full longitude circle per rank")
	}
	nx := f.g.Nx
	rows := 0
	for k := rect.K0; k < rect.K1; k++ {
		for j := rect.J0; j < rect.J1; j++ {
			if !f.Active(j) {
				continue
			}
			base := fld.Index(0, j, k)
			f.FilterRow(fld.Data[base:base+nx], j)
			rows++
		}
	}
	return rows
}

// Apply2 filters a 2-D field the same way.
func (f *Filter) Apply2(fld *field.F2, rect field.Rect) int {
	if !fld.B.OwnsFullX() {
		panic("filter: serial Apply2 requires a full longitude circle per rank")
	}
	rect = rect.Flat2D()
	nx := f.g.Nx
	rows := 0
	for j := rect.J0; j < rect.J1; j++ {
		if !f.Active(j) {
			continue
		}
		base := fld.Index(0, j)
		f.FilterRow(fld.Data[base:base+nx], j)
		rows++
	}
	return rows
}

// ApplyDist filters the owned region of fld when x is decomposed: the rank
// row (t.RowX) transposes x-segments so each member holds complete latitude
// rows, filters them, and transposes back. Communication is attributed to
// comm.CatCollectiveX. Returns the number of transformed rows on this rank
// after the transpose.
//
// Only rows that are actually filtered (poleward of the cutoff) enter the
// transpose, mirroring how a production implementation only communicates
// filtered latitudes.
func (f *Filter) ApplyDist(t *topo.Topology, fld *field.F3) int {
	rx := t.RowX
	if rx == nil || rx.Size() == 1 {
		return f.Apply(fld, fld.B.Owned())
	}
	prev := t.World.SetCategory(comm.CatCollectiveX)
	defer t.World.SetCategory(prev)

	b := fld.B
	nx := f.g.Nx
	px := rx.Size()
	nxLoc := b.I1 - b.I0

	// Enumerate the filtered rows of the owned region in (k, j) order; every
	// member of the x row has the same list because blocks share (J, K).
	type rowID struct{ j, k int }
	var rows []rowID
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			if f.Active(j) {
				rows = append(rows, rowID{j, k})
			}
		}
	}
	nrows := len(rows)
	if nrows == 0 {
		return 0
	}

	// Row q is processed by x-rank owner(q) = q·px/nrows block partition.
	rowLo := func(r int) int { return r * nrows / px }
	rowHi := func(r int) int { return (r + 1) * nrows / px }

	// Transpose 1: send my x segment of each row to that row's owner. Peer r
	// owns x range [r·nx/px, (r+1)·nx/px), whose length can differ from mine
	// by one when px does not divide nx.
	xSeg := func(r int) int { return (r+1)*nx/px - r*nx/px }
	myLo, myHi := rowLo(rx.Rank()), rowHi(rx.Rank())
	send := make([][]float64, px)
	recv := make([][]float64, px)
	for r := 0; r < px; r++ {
		cnt := rowHi(r) - rowLo(r)
		send[r] = make([]float64, cnt*nxLoc)
		for q := rowLo(r); q < rowHi(r); q++ {
			base := fld.Index(b.I0, rows[q].j, rows[q].k)
			copy(send[r][(q-rowLo(r))*nxLoc:], fld.Data[base:base+nxLoc])
		}
		recv[r] = make([]float64, (myHi-myLo)*xSeg(r))
	}
	rx.Alltoall(send, recv)

	// Assemble my complete rows and filter them.
	full := make([][]float64, myHi-myLo)
	for q := range full {
		full[q] = make([]float64, nx)
	}
	for r := 0; r < px; r++ {
		i0 := r * nx / px
		segLen := xSeg(r)
		for q := myLo; q < myHi; q++ {
			copy(full[q-myLo][i0:i0+segLen], recv[r][(q-myLo)*segLen:])
		}
	}
	for q := myLo; q < myHi; q++ {
		f.FilterRow(full[q-myLo], rows[q].j)
	}

	// Transpose 2: scatter filtered segments back.
	for r := 0; r < px; r++ {
		i0 := r * nx / px
		segLen := xSeg(r)
		send[r] = make([]float64, (myHi-myLo)*segLen)
		for q := myLo; q < myHi; q++ {
			copy(send[r][(q-myLo)*segLen:], full[q-myLo][i0:i0+segLen])
		}
		recv[r] = make([]float64, (rowHi(r)-rowLo(r))*nxLoc)
	}
	rx.Alltoall(send, recv)
	for r := 0; r < px; r++ {
		for q := rowLo(r); q < rowHi(r); q++ {
			base := fld.Index(b.I0, rows[q].j, rows[q].k)
			copy(fld.Data[base:base+nxLoc], recv[r][(q-rowLo(r))*nxLoc:(q-rowLo(r))*nxLoc+nxLoc])
		}
	}
	return myHi - myLo
}

// ApplyDist2 is ApplyDist for 2-D fields.
func (f *Filter) ApplyDist2(t *topo.Topology, fld *field.F2) int {
	rx := t.RowX
	if rx == nil || rx.Size() == 1 {
		return f.Apply2(fld, fld.B.Owned())
	}
	prev := t.World.SetCategory(comm.CatCollectiveX)
	defer t.World.SetCategory(prev)

	b := fld.B
	nx := f.g.Nx
	px := rx.Size()
	nxLoc := b.I1 - b.I0

	var rows []int
	for j := b.J0; j < b.J1; j++ {
		if f.Active(j) {
			rows = append(rows, j)
		}
	}
	nrows := len(rows)
	if nrows == 0 {
		return 0
	}
	rowLo := func(r int) int { return r * nrows / px }
	rowHi := func(r int) int { return (r + 1) * nrows / px }
	xSeg := func(r int) int { return (r+1)*nx/px - r*nx/px }
	myLo, myHi := rowLo(rx.Rank()), rowHi(rx.Rank())

	send := make([][]float64, px)
	recv := make([][]float64, px)
	for r := 0; r < px; r++ {
		cnt := rowHi(r) - rowLo(r)
		send[r] = make([]float64, cnt*nxLoc)
		for q := rowLo(r); q < rowHi(r); q++ {
			base := fld.Index(b.I0, rows[q])
			copy(send[r][(q-rowLo(r))*nxLoc:], fld.Data[base:base+nxLoc])
		}
		recv[r] = make([]float64, (myHi-myLo)*xSeg(r))
	}
	rx.Alltoall(send, recv)

	full := make([][]float64, myHi-myLo)
	for q := range full {
		full[q] = make([]float64, nx)
	}
	for r := 0; r < px; r++ {
		i0 := r * nx / px
		segLen := xSeg(r)
		for q := myLo; q < myHi; q++ {
			copy(full[q-myLo][i0:i0+segLen], recv[r][(q-myLo)*segLen:])
		}
	}
	for q := myLo; q < myHi; q++ {
		f.FilterRow(full[q-myLo], rows[q])
	}
	for r := 0; r < px; r++ {
		i0 := r * nx / px
		segLen := xSeg(r)
		send[r] = make([]float64, (myHi-myLo)*segLen)
		for q := myLo; q < myHi; q++ {
			copy(send[r][(q-myLo)*segLen:], full[q-myLo][i0:i0+segLen])
		}
		recv[r] = make([]float64, (rowHi(r)-rowLo(r))*nxLoc)
	}
	rx.Alltoall(send, recv)
	for r := 0; r < px; r++ {
		for q := rowLo(r); q < rowHi(r); q++ {
			base := fld.Index(b.I0, rows[q])
			copy(fld.Data[base:base+nxLoc], recv[r][(q-rowLo(r))*nxLoc:(q-rowLo(r))*nxLoc+nxLoc])
		}
	}
	return myHi - myLo
}
