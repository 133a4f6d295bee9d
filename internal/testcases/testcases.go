// Package testcases is a catalog of initial conditions for the dynamical
// core: the standard idealized states used to exercise, validate and
// demonstrate the model beyond the Held–Suarez benchmark. Each constructor
// returns a dycore.InitFunc.
package testcases

import (
	"math"
	"math/rand"

	"cadycore/internal/grid"
	"cadycore/internal/physics"
	"cadycore/internal/state"
)

// InitFunc mirrors dycore.InitFunc without importing it (avoids a cycle for
// packages below dycore).
type InitFunc func(g *grid.Grid, st *state.State)

// RestingIsothermal is an atmosphere at rest with uniform temperature t0
// and surface pressure p0 — an exact steady state of the dynamics up to
// discretization residuals; the standard "does nothing happen?" test.
func RestingIsothermal(t0 float64) InitFunc {
	return func(g *grid.Grid, st *state.State) {
		st.InitFromPhysical(g,
			zero3, zero3,
			func(lam, th, sig float64) float64 { return t0 },
			func(lam, th float64) float64 { return physics.P0 },
		)
	}
}

// SolidBodyRotation is a super-rotation u = u0·sinθ (rigid rotation about
// the earth's axis) over an isothermal atmosphere — zonally symmetric, so
// the evolution must preserve zonal symmetry exactly.
func SolidBodyRotation(u0, t0 float64) InitFunc {
	return func(g *grid.Grid, st *state.State) {
		st.InitFromPhysical(g,
			func(lam, th, sig float64) float64 { return u0 * math.Sin(th) },
			zero3,
			func(lam, th, sig float64) float64 { return t0 },
			func(lam, th float64) float64 { return physics.P0 },
		)
	}
}

// GravityWavePulse is a resting isothermal atmosphere with a localized
// geopotential (temperature) anomaly centered at longitude lam0 on the
// equator: the adaptation terms radiate it as external gravity waves with
// phase speed ≈ b (the transform's characteristic speed, 87.8 m/s) — the
// fast process the adaptation iteration with Δt1 ≪ Δt2 exists to handle.
func GravityWavePulse(amplitudeK, widthRad, lam0 float64) InitFunc {
	return func(g *grid.Grid, st *state.State) {
		st.InitFromPhysical(g,
			zero3, zero3,
			func(lam, th, sig float64) float64 {
				dl := angularDistance(lam, lam0)
				dth := th - math.Pi/2
				r2 := (dl*dl + dth*dth) / (widthRad * widthRad)
				return 280 + amplitudeK*math.Exp(-r2)
			},
			func(lam, th float64) float64 { return physics.P0 },
		)
	}
}

// ZonalJetWithWaves is a midlatitude westerly jet with zonal wavenumber
// perturbations in wind, temperature and pressure — the generic "busy but
// smooth" state the cross-decomposition equivalence tests use.
func ZonalJetWithWaves(u0 float64, waveM int) InitFunc {
	m := float64(waveM)
	return func(g *grid.Grid, st *state.State) {
		st.InitFromPhysical(g,
			func(lam, th, sig float64) float64 {
				return u0*math.Sin(th)*math.Sin(th) + 2*math.Sin(m*lam)*math.Sin(th)
			},
			func(lam, th, sig float64) float64 {
				return 1.5 * math.Sin(m*lam) * math.Sin(th) * math.Sin(th)
			},
			func(lam, th, sig float64) float64 {
				return 288 - 40*(1-sig) + 10*math.Cos(th)*math.Cos(th) + 2*math.Cos(m*lam)*math.Sin(th)
			},
			func(lam, th float64) float64 {
				return physics.P0 + 300*math.Cos(m*lam)*math.Sin(th)
			},
		)
	}
}

// RandomNoise superimposes smooth-amplitude random perturbations on a
// resting isothermal state — deterministic per seed and per point, so every
// rank (and every decomposition) generates identical global fields. Used by
// robustness tests.
func RandomNoise(seed int64, windAmp, tempAmp, psAmp float64) InitFunc {
	return func(g *grid.Grid, st *state.State) {
		noise := func(i, j, k, comp int) float64 {
			h := seed
			for _, v := range []int64{int64(i), int64(j), int64(k), int64(comp)} {
				h = h*6364136223846793005 + v + 1442695040888963407
			}
			r := rand.New(rand.NewSource(h))
			return 2*r.Float64() - 1
		}
		idx := func(lam, th float64) (int, int) {
			i := int(math.Round(lam/g.DLambda)) % g.Nx
			j := int(math.Round(th/g.DTheta - 0.5))
			if j < 0 {
				j = 0
			}
			if j >= g.Ny {
				j = g.Ny - 1
			}
			return i, j
		}
		kOf := func(sig float64) int {
			for k := 0; k < g.Nz; k++ {
				if math.Abs(g.Sigma[k]-sig) < 1e-12 {
					return k
				}
			}
			return 0
		}
		st.InitFromPhysical(g,
			func(lam, th, sig float64) float64 {
				i, j := idx(lam, th)
				return windAmp * noise(i, j, kOf(sig), 0) * math.Sin(th)
			},
			func(lam, th, sig float64) float64 {
				i, j := idx(lam, th)
				return windAmp * noise(i, j, kOf(sig), 1) * math.Sin(th)
			},
			func(lam, th, sig float64) float64 {
				i, j := idx(lam, th)
				return 280 + tempAmp*noise(i, j, kOf(sig), 2)
			},
			func(lam, th float64) float64 {
				i, j := idx(lam, th)
				return physics.P0 + psAmp*noise(i, j, 0, 3)
			},
		)
	}
}

// BalancedZonalJet builds a zonally symmetric jet u(θ) in gradient-wind
// balance, ∂Φ/∂θ = (a/b)·f*·U with θ the colatitude and V southward: Φ rises
// toward the equator under a northern-hemisphere westerly. Φ integrates the
// balance in latitude on the C grid, so that the model's own V-equation
// tendency vanishes identically (−P_θ⁽¹⁾ + f*·U = 0, with uniform surface
// pressure making the remaining adaptation terms zero). The state is therefore an exact fixed point of the adaptation AND
// advection processes; only the meridional smoothing of Φ perturbs it, at
// O(β·δ⁴_θΦ) per step. uFn gives the physical wind at colatitude θ.
func BalancedZonalJet(uFn func(theta float64) float64) InitFunc {
	return func(g *grid.Grid, st *state.State) {
		p := physics.PFromPs(physics.P0) // uniform surface pressure
		// Column profile of Φ by integrating the discrete balance
		// Φ[j] = Φ[j−1] + (aΔθ/b)·f*_j·U4_j from the north.
		phi := make([]float64, g.Ny)
		phi[0] = 0
		uC := make([]float64, g.Ny)
		for j := 0; j < g.Ny; j++ {
			uC[j] = uFn(g.ThetaC[j])
		}
		for j := 1; j < g.Ny; j++ {
			u4 := p * 0.5 * (uC[j-1] + uC[j]) // the kernel's 4-point average, zonally uniform
			sI := g.SinI[j]
			cI := g.CosI[j]
			fstar := 2*physics.Omega*cI + (u4/p)*cI/(physics.EarthRadius*sI)
			phi[j] = phi[j-1] + physics.EarthRadius*g.DTheta/physics.B*fstar*u4
		}
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					st.U.Set(i, j, k, p*uC[j])
					st.Phi.Set(i, j, k, phi[j])
				}
			}
		}
		// V = 0 and p'_sa = 0 already (zero state).
	}
}

func zero3(lam, th, sig float64) float64 { return 0 }

// angularDistance is the periodic distance between two longitudes.
func angularDistance(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}
