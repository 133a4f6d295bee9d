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
//   - Distributed filtering when x is decomposed (the X-Y decomposition,
//     ApplyDistBatch): a transpose (Alltoall on the x communicator) gathers
//     complete rows, each rank filters its share, and a second transpose
//     scatters them back. This is the collective whose cost dominates the
//     lower bound (Theorem 4.1 with η_x = 1) and which the paper's scheme
//     eliminates.
package filter

import (
	"math"

	"cadycore/internal/fft"
	"cadycore/internal/field"
	"cadycore/internal/grid"
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

// Apply2 is Apply on a 2-D field's level.
func (f *Filter) Apply2(fld *field.F2, rect field.Rect) int { return f.Apply(&fld.F3, rect.Flat2D()) }
