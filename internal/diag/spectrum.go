package diag

import (
	"math/cmplx"

	"cadycore/internal/fft"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// ZonalSpectrum returns the zonal kinetic-energy-like spectrum of the
// transformed zonal wind at latitude row j and level k: E[m] is the squared
// spectral amplitude of zonal wavenumber m (0 ≤ m ≤ Nx/2), averaged over
// the rank states holding that row. It is the quantity the Fourier polar
// filter truncates, so a filtered row's spectrum must be empty above the
// cutoff — the property TestFilterTruncatesSpectrum verifies.
func ZonalSpectrum(g *grid.Grid, sts []*state.State, j, k int) []float64 {
	row := make([]float64, g.Nx)
	found := false
	for _, st := range sts {
		b := st.B
		if j < b.J0 || j >= b.J1 || k < b.K0 || k >= b.K1 {
			continue
		}
		for i := b.I0; i < b.I1; i++ {
			row[i] = st.U.At(i, j, k)
		}
		found = true // partial rows accumulate across ranks
	}
	if !found {
		return nil
	}
	plan := fft.NewRealPlan(g.Nx)
	coef := make([]complex128, plan.SpecLen())
	plan.Forward(row, coef, nil)
	half := g.Nx / 2
	out := make([]float64, len(coef))
	for m := range out {
		a := cmplx.Abs(coef[m]) / float64(g.Nx)
		e := a * a
		if m != 0 && m != half {
			e *= 2 // fold the conjugate half
		}
		out[m] = e
	}
	return out
}

// SpectrumTail returns the summed spectral energy above wavenumber mCut.
func SpectrumTail(spec []float64, mCut int) float64 {
	t := 0.0
	for m := mCut + 1; m < len(spec); m++ {
		t += spec[m]
	}
	return t
}
