// Package grid defines the global 3-dimensional latitude–longitude mesh with
// Arakawa C-grid staggering and the terrain-following σ vertical coordinate
// used by the dynamical core (paper Section 2.2).
//
// Directions follow the paper's convention: x is longitude (λ), y is latitude
// (expressed as colatitude θ ∈ (0, π) so that sinθ is the metric factor that
// vanishes at the poles), z is the vertical (σ). Numbers of nodes along the
// three directions are Nx, Ny and Nz.
//
// Staggering (Arakawa C):
//
//	scalars (Φ, T, p's, …)  at cell centers       (λ_i,      θ_j,      σ_k)
//	U                       at west faces          (λ_{i−1/2}, θ_j,     σ_k)
//	V                       at south faces         (λ_i,      θ_{j+1/2}, σ_k)
//
// Longitude is periodic. Latitude cell centers are offset by half a cell from
// the poles (θ_j = (j+1/2)Δθ), so no prognostic point sits exactly on a pole;
// V points at the polar interfaces (θ = 0 and θ = π) are held at zero.
package grid

import (
	"fmt"
	"math"
)

// Grid holds the static geometry of the global mesh. All slices are indexed
// with 0-based global indices. A Grid is immutable after construction and
// safe for concurrent use.
type Grid struct {
	Nx, Ny, Nz int

	// DLambda and DTheta are the angular spacings 2π/Nx and π/Ny.
	DLambda, DTheta float64

	// Lambda holds cell-center longitudes λ_i = i·Δλ, length Nx. The U point
	// for column i sits at λ_i − Δλ/2.
	Lambda []float64

	// ThetaC holds colatitudes of cell centers, θ_j = (j+1/2)·Δθ, length Ny.
	ThetaC []float64
	// ThetaI holds colatitudes of the latitude interfaces where V lives,
	// θ_{j+1/2} = (j+1)·Δθ for j = −1..Ny−1; ThetaI[j] is the *south* face of
	// cell j shifted: ThetaI has length Ny+1 with ThetaI[0] = 0 (north pole)
	// and ThetaI[Ny] = π (south pole). V_{i,j+1/2,k} is stored at index j and
	// lives at colatitude ThetaI[j+1].
	ThetaI []float64

	// SinC, CosC are sin/cos of ThetaC; SinI, CosI of ThetaI.
	SinC, CosC []float64
	SinI, CosI []float64

	// SigmaI holds the Nz+1 σ interfaces with SigmaI[0] = 0 (model top,
	// p = p_t) and SigmaI[Nz] = 1 (surface). Sigma holds the Nz mid-levels
	// and DSigma the layer thicknesses Δσ_k = SigmaI[k+1] − SigmaI[k].
	SigmaI []float64
	Sigma  []float64
	DSigma []float64
}

// Check reports whether nx×ny×nz is a usable mesh: every extent must be wide
// enough for the widest stencil (the fourth-difference smoothing needs
// Nx ≥ 8 and Ny ≥ 5; the vertical operators need Nz ≥ 2). Entry points call
// it to turn a bad mesh into an error before anything panics on it.
func Check(nx, ny, nz int) error {
	switch {
	case nx < 8:
		return fmt.Errorf("grid: Nx = %d too small (need ≥ 8 for the x stencils)", nx)
	case ny < 5:
		return fmt.Errorf("grid: Ny = %d too small (need ≥ 5 for the y stencils)", ny)
	case nz < 2:
		return fmt.Errorf("grid: Nz = %d too small (need ≥ 2 for the vertical operators)", nz)
	}
	return nil
}

// New constructs a grid with uniform angular spacing and uniform σ layers.
// It panics with Check's error on a mesh Check rejects.
func New(nx, ny, nz int) *Grid {
	if err := Check(nx, ny, nz); err != nil {
		panic(err.Error())
	}
	return NewWithSigma(nx, ny, uniformSigmaInterfaces(nz))
}

// NewWithSigma constructs a grid with uniform angular spacing and the given
// σ interfaces (len Nz+1, strictly increasing from 0 to 1).
func NewWithSigma(nx, ny int, sigmaI []float64) *Grid {
	nz := len(sigmaI) - 1
	if err := Check(nx, ny, nz); err != nil {
		panic(err.Error())
	}
	if err := CheckSigma(sigmaI); err != nil {
		panic(err.Error())
	}

	g := &Grid{
		Nx:      nx,
		Ny:      ny,
		Nz:      nz,
		DLambda: 2 * math.Pi / float64(nx),
		DTheta:  math.Pi / float64(ny),
	}

	g.Lambda = make([]float64, nx)
	for i := 0; i < nx; i++ {
		g.Lambda[i] = float64(i) * g.DLambda
	}

	g.ThetaC = make([]float64, ny)
	g.SinC = make([]float64, ny)
	g.CosC = make([]float64, ny)
	for j := 0; j < ny; j++ {
		th := (float64(j) + 0.5) * g.DTheta
		g.ThetaC[j] = th
		g.SinC[j] = math.Sin(th)
		g.CosC[j] = math.Cos(th)
	}

	g.ThetaI = make([]float64, ny+1)
	g.SinI = make([]float64, ny+1)
	g.CosI = make([]float64, ny+1)
	for j := 0; j <= ny; j++ {
		th := float64(j) * g.DTheta
		g.ThetaI[j] = th
		g.SinI[j] = math.Sin(th)
		g.CosI[j] = math.Cos(th)
	}
	// Force the exact polar values so metric terms vanish identically there.
	g.SinI[0], g.CosI[0] = 0, 1
	g.SinI[ny], g.CosI[ny] = 0, -1

	g.SigmaI = append([]float64(nil), sigmaI...)
	g.Sigma = make([]float64, nz)
	g.DSigma = make([]float64, nz)
	for k := 0; k < nz; k++ {
		g.Sigma[k] = 0.5 * (sigmaI[k] + sigmaI[k+1])
		g.DSigma[k] = sigmaI[k+1] - sigmaI[k]
	}
	return g
}

// StretchedSigmaInterfaces returns Nz+1 σ interfaces concentrated toward
// the surface: σ_k = 1 − (1 − k/Nz)^stretch with stretch > 1 — the layer
// placement production models use (thin boundary-layer levels near σ = 1,
// thick stratospheric ones near the top). stretch = 1 reproduces the
// uniform spacing.
func StretchedSigmaInterfaces(nz int, stretch float64) []float64 {
	if nz < 1 {
		panic(fmt.Sprintf("grid: Nz = %d must be positive", nz))
	}
	if stretch <= 0 {
		panic(fmt.Sprintf("grid: stretch = %g must be positive", stretch))
	}
	s := make([]float64, nz+1)
	for k := 0; k <= nz; k++ {
		s[k] = 1 - math.Pow(1-float64(k)/float64(nz), stretch)
	}
	s[0], s[nz] = 0, 1
	return s
}

// uniformSigmaInterfaces returns Nz+1 evenly spaced σ interfaces; New has
// already checked nz.
func uniformSigmaInterfaces(nz int) []float64 {
	s := make([]float64, nz+1)
	for k := 0; k <= nz; k++ {
		s[k] = float64(k) / float64(nz)
	}
	return s
}

// CheckSigma reports whether sigmaI is a usable set of σ interfaces: at
// least 3, running from 0 to 1, strictly increasing. NewWithSigma panics with
// its error; entry points call it first to report a bad set as an error.
func CheckSigma(sigmaI []float64) error {
	n := len(sigmaI)
	if n < 3 {
		return fmt.Errorf("grid: need at least 3 σ interfaces, got %d", n)
	}
	if sigmaI[0] != 0 || sigmaI[n-1] != 1 {
		return fmt.Errorf("grid: σ interfaces must run from 0 to 1, got [%g, %g]", sigmaI[0], sigmaI[n-1])
	}
	for k := 1; k < n; k++ {
		if !(sigmaI[k] > sigmaI[k-1]) {
			return fmt.Errorf("grid: σ interfaces must be strictly increasing: σ[%d]=%g ≤ σ[%d]=%g",
				k, sigmaI[k], k-1, sigmaI[k-1])
		}
	}
	return nil
}

// LatitudeDeg returns the geographic latitude in degrees of cell-center row
// j: +90° at the north pole (θ = 0) to −90° at the south pole (θ = π).
func (g *Grid) LatitudeDeg(j int) float64 {
	return 90 - g.ThetaC[j]*180/math.Pi
}

// CellArea returns the spherical surface area weight of cell (i, j):
// a²·sinθ_j·Δθ·Δλ. It is independent of i.
func (g *Grid) CellArea(j int) float64 {
	const a = earthRadius
	return a * a * g.SinC[j] * g.DTheta * g.DLambda
}

// String implements fmt.Stringer.
func (g *Grid) String() string {
	return fmt.Sprintf("grid %dx%dx%d (Δλ=%.4g°, Δθ=%.4g°, %d σ layers)",
		g.Nx, g.Ny, g.Nz, g.DLambda*180/math.Pi, g.DTheta*180/math.Pi, g.Nz)
}

// earthRadius mirrors physics.EarthRadius; duplicated here to keep grid free
// of dependencies (it is a pure-geometry package).
const earthRadius = 6.371e6
