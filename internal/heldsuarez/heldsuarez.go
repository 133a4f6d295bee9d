// Package heldsuarez implements the Held–Suarez (1994) idealized dry-model
// forcing, the benchmark the paper evaluates the dynamical core with
// (Section 5.1): Newtonian relaxation of temperature toward a prescribed
// radiative-equilibrium profile and Rayleigh damping of low-level winds. It
// exercises the dynamical core independently of physical parameterizations.
//
// The forcing is pointwise in the horizontal and therefore adds no
// communication; it is applied between dynamics steps to the physical
// variables recovered from the transformed state and then folded back.
package heldsuarez

import (
	"math"

	"cadycore/internal/grid"
	"cadycore/internal/physics"
	"cadycore/internal/state"
)

// Params are the standard Held–Suarez constants.
type Params struct {
	DeltaTy   float64 // ΔT_y: equator–pole equilibrium temperature contrast (K)
	DeltaThz  float64 // Δθ_z: vertical potential-temperature contrast (K)
	Ka        float64 // 1/s: temperature relaxation rate aloft
	Ks        float64 // 1/s: temperature relaxation rate at the surface (tropics)
	Kf        float64 // 1/s: boundary-layer Rayleigh friction rate
	SigmaB    float64 // σ_b: boundary-layer top
	T0        float64 // global equilibrium reference temperature (K)
	TStratMin float64 // floor temperature (K)
}

// Standard returns the constants of Held & Suarez (1994).
func Standard() Params {
	const day = 86400.0
	return Params{
		DeltaTy:   60,
		DeltaThz:  10,
		Ka:        1.0 / (40 * day),
		Ks:        1.0 / (4 * day),
		Kf:        1.0 / day,
		SigmaB:    0.7,
		T0:        315,
		TStratMin: 200,
	}
}

// Teq returns the radiative-equilibrium temperature at geographic latitude
// φ (radians) and pressure p (Pa). It is the reference form; Apply evaluates
// the same profile through teqRow.
func (hs Params) Teq(phi, p float64) float64 {
	sin2 := math.Sin(phi) * math.Sin(phi)
	cos2 := 1 - sin2
	pr := p / physics.P0
	t := (hs.T0 - hs.DeltaTy*sin2 - hs.DeltaThz*math.Log(pr)*cos2) * math.Pow(pr, physics.Kappa)
	if t < hs.TStratMin {
		t = hs.TStratMin
	}
	return t
}

// teqRow is Teq for a point of a latitude row whose sin²φ and cos²φ the
// caller has hoisted, with (p/p0)^κ taken as exp(κ·ln(p/p0)) from the
// logarithm the profile needs anyway: one libm call per point less, and no
// sine. It agrees with Teq to a few ulp.
func (hs Params) teqRow(sin2, cos2, p float64) float64 {
	lnpr := math.Log(p / physics.P0)
	t := (hs.T0 - hs.DeltaTy*sin2 - hs.DeltaThz*lnpr*cos2) * math.Exp(physics.Kappa*lnpr)
	if t < hs.TStratMin {
		t = hs.TStratMin
	}
	return t
}

// KT returns the temperature relaxation rate at latitude φ and level σ.
func (hs Params) KT(phi, sigma float64) float64 {
	w := (sigma - hs.SigmaB) / (1 - hs.SigmaB)
	if w < 0 {
		w = 0
	}
	c := math.Cos(phi)
	return hs.Ka + (hs.Ks-hs.Ka)*w*c*c*c*c
}

// KV returns the Rayleigh friction rate at level σ.
func (hs Params) KV(sigma float64) float64 {
	w := (sigma - hs.SigmaB) / (1 - hs.SigmaB)
	if w < 0 {
		w = 0
	}
	return hs.Kf * w
}

// Apply integrates the forcing over dt seconds on the owned region of st
// (implicit/exact updates, unconditionally stable):
//
//	u, v ← u, v / (1 + dt·k_v)
//	T    ← (T + dt·k_T·T_eq) / (1 + dt·k_T)
//
// applied directly to the transformed variables: U and V scale like u and v
// (P is unchanged by the forcing), and Φ maps affinely to T.
func (hs Params) Apply(g *grid.Grid, st *state.State, dt float64) {
	b := st.B
	// Winds: U at centers' west faces, V at interfaces. The friction factor
	// depends only on σ.
	for k := b.K0; k < b.K1; k++ {
		sig := g.Sigma[k]
		fv := 1 / (1 + dt*hs.KV(sig))
		if fv != 1 {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					st.U.Set(i, j, k, st.U.At(i, j, k)*fv)
					st.V.Set(i, j, k, st.V.At(i, j, k)*fv)
				}
			}
		}
	}
	// Temperature relaxation on Φ = P·R·(T−T̃)/b at centers.
	for k := b.K0; k < b.K1; k++ {
		sig := g.Sigma[k]
		tTil := physics.StandardTemperature(sig)
		for j := b.J0; j < b.J1; j++ {
			phiLat := math.Pi/2 - g.ThetaC[j] // geographic latitude
			kT := hs.KT(phiLat, sig)
			denom := 1 / (1 + dt*kT)
			sinLat := math.Sin(phiLat)
			sin2 := sinLat * sinLat
			cos2 := 1 - sin2
			for i := b.I0; i < b.I1; i++ {
				ps := physics.StandardSurfacePressure + st.Psa.At(i, j)
				p := physics.PFromPs(ps)
				if p <= 0 {
					continue
				}
				pres := sig*physics.PesFromPs(ps) + physics.Pt
				t := physics.TemperatureFromPhi(st.Phi.At(i, j, k), p, tTil)
				teq := hs.teqRow(sin2, cos2, pres)
				tNew := (t + dt*kT*teq) * denom
				st.Phi.Set(i, j, k, physics.PhiFromTemperature(tNew, p, tTil))
			}
		}
	}
}

// InitialState fills st's owned region with the standard H-S starting
// condition: an isothermal-ish resting atmosphere near the equilibrium
// profile with a small zonally asymmetric temperature perturbation to break
// symmetry.
func InitialState(g *grid.Grid, st *state.State) {
	hs := Standard()
	st.InitFromPhysical(g,
		func(lam, th, sig float64) float64 { return 0 }, // u
		func(lam, th, sig float64) float64 { return 0 }, // v
		func(lam, th, sig float64) float64 { // T
			phi := math.Pi/2 - th
			p := sig*(physics.P0-physics.Pt) + physics.Pt
			pert := 0.5 * math.Sin(4*lam) * math.Sin(th) * math.Sin(th)
			return hs.Teq(phi, p) + pert
		},
		func(lam, th float64) float64 { return physics.P0 }, // ps
	)
}
