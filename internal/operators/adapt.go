package operators

import (
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
	"cadycore/internal/state"
)

// AdaptConfig carries the switches of the adaptation terms.
type AdaptConfig struct {
	// KappaStar enables the surface-pressure diffusion term κ*·D_sa
	// (paper eq. 2, fourth component); 1 in the standard configuration.
	KappaStar float64
}

// DefaultAdaptConfig returns the standard configuration.
func DefaultAdaptConfig() AdaptConfig { return AdaptConfig{KappaStar: 1} }

// Adaptation evaluates the stencil part Â of the adaptation tendency plus
// the Ĉ-derived contributions (taken from cres, which may be a lagged
// evaluation under the approximate nonlinear iteration):
//
//	dU   = −P_λ⁽¹⁾ − P_λ⁽²⁾ + f*·V                  (at U points)
//	dV   = −P_θ⁽¹⁾ − P_θ⁽²⁾ − f*·U                  (at V points)
//	dΦ   = b·(Ω⁽¹⁾ + Ω_θ⁽²⁾ + Ω_λ⁽²⁾)               (at centers)
//	dp'_sa = κ*·k_sa·∇²p'_sa − p0·D̄                  (2-D)
//
// over rect r (dV additionally skips pole interfaces, where V ≡ 0). Inputs:
// st valid on r expanded by the Table-1 radii, sur recomputed from st.Psa,
// cres from CSum. The z reads are one-sided (k and k+1 only), which is what
// licenses the asymmetric deep halo. Returns points updated.
func Adaptation(g *grid.Grid, cfg AdaptConfig, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect) int {
	return Adaptation3D(g, st, sur, cres, out, r) + AdaptationPsa(g, cfg, st, cres, out, r)
}

// Adaptation3D evaluates the three 3-D components (dU, dV, dΦ) of the
// adaptation tendency over r. Writes are confined to r and all inputs are
// read-only, so any disjoint cover of r (the overlapped interior/boundary
// split) produces bitwise the monolithic result. Returns points updated
// (3·|r|).
func Adaptation3D(g *grid.Grid, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect) int {
	m := newMetric(g)
	xo := st.Phi.XOff(0)

	for k := r.K0; k < r.K1; k++ {
		sigMid := g.Sigma[k]
		for j := r.J0; j < r.J1; j++ {
			sC := m.sinC(j)
			cC := m.cosC(j)
			invASinDlam := 1 / (m.a * sC * m.dlam)

			phi0 := st.Phi.Row(j, k)
			phiDn := st.Phi.Row(j, k+1)
			phiN := st.Phi.Row(j-1, k)
			phiNDn := st.Phi.Row(j-1, k+1)
			u0 := st.U.Row(j, k)
			uN := st.U.Row(j-1, k)
			v0 := st.V.Row(j, k)
			vS := st.V.Row(j+1, k)
			pes0 := sur.Pes.Row(j)
			pesN := sur.Pes.Row(j - 1)
			pesS := sur.Pes.Row(j + 1)
			pRow := sur.P.Row(j)
			pRowN := sur.P.Row(j - 1)
			pw0 := cres.PWI.Row(j, k)
			pw1 := cres.PWI.Row(j, k+1)
			dbar := cres.DBar.Row(j)
			dU := out.DU.Row(j, k)
			dPhi := out.DPhi.Row(j, k)

			for i := r.I0; i < r.I1; i++ {
				o := i + xo
				// ---- dU at U point (west face i) ----
				// Φ̃ = vertical k,k+1 average (hydrostatic coupling; the
				// z mirror makes k+1 safe at the bottom).
				phiT0 := 0.5 * (phi0[o-1] + phiDn[o-1])
				phiT1 := 0.5 * (phi0[o] + phiDn[o])
				pl1 := m.b * (phiT1 - phiT0) * invASinDlam

				pesW := 0.5 * (pes0[o-1] + pes0[o])
				phiW := 0.5 * (phi0[o-1] + phi0[o])
				pl2 := m.b * phiW / pesW * (pes0[o] - pes0[o-1]) * invASinDlam

				pW := 0.5 * (pRow[o-1] + pRow[o])
				uPhys := u0[o] / pW
				fstar := 2*physics.Omega*cC + uPhys*cC/(m.a*sC)
				v4 := 0.25 * (v0[o-1] + vS[o-1] + v0[o] + vS[o])

				dU[o] = -pl1 - pl2 + fstar*v4

				// ---- dΦ at center ----
				pC := pRow[o]
				pesC := pes0[o]
				wMid := 0.5 * (pw0[o] + pw1[o]) / pC
				omega1 := wMid/sigMid - dbar[o]/pC

				vC := 0.5 * (v0[o] + vS[o])
				dpesDy := (pesS[o] - pesN[o]) / (2 * m.haDthe)
				omegaT2 := vC / pesC * dpesDy

				uC := 0.5 * (u0[o] + u0[o+1])
				dpesDx := (pes0[o+1] - pes0[o-1]) / (2 * m.a * sC * m.dlam)
				omegaL2 := uC / pesC * dpesDx

				dPhi[o] = m.b * (omega1 + omegaT2 + omegaL2)
			}

			// ---- dV at V point (interface j): interior interfaces only ----
			dV := out.DV.Row(j, k)
			if j >= 1 && j <= g.Ny-1 {
				sI := m.sinI(j)
				cI := g.CosI[j]
				for i := r.I0; i < r.I1; i++ {
					o := i + xo
					phiT0 := 0.5 * (phiN[o] + phiNDn[o])
					phiT1 := 0.5 * (phi0[o] + phiDn[o])
					pt1 := m.b * (phiT1 - phiT0) / m.haDthe

					pesV := 0.5 * (pesN[o] + pes0[o])
					phiV := 0.5 * (phiN[o] + phi0[o])
					pt2 := m.b * phiV / pesV * (pes0[o] - pesN[o]) / m.haDthe

					u4 := 0.25 * (uN[o] + uN[o+1] + u0[o] + u0[o+1])
					pV := 0.5 * (pRowN[o] + pRow[o])
					uPhys := u4 / pV
					fstar := 2*physics.Omega*cI + uPhys*cI/(m.a*sI)

					dV[o] = -pt1 - pt2 - fstar*u4
				}
			} else {
				for i := r.I0; i < r.I1; i++ {
					dV[i+xo] = 0
				}
			}
		}
	}
	return 3 * r.Count()
}

// AdaptationPsa evaluates the 2-D surface-pressure component dp'_sa of the
// adaptation tendency over r.Flat2D(). It must run exactly once per tendency
// evaluation (never per k tile). Returns points updated.
func AdaptationPsa(g *grid.Grid, cfg AdaptConfig, st *state.State, cres *CRes, out *Tendency, r field.Rect) int {
	m := newMetric(g)
	xo := st.Psa.XOff(0)
	r2 := r.Flat2D()
	ks := cfg.KappaStar * physics.Ksa
	for j := r2.J0; j < r2.J1; j++ {
		sC := m.sinC(j)
		sI0, sI1 := m.sinI(j), m.sinI(j+1)
		invALam2 := 1 / (m.a * sC * m.dlam * m.a * sC * m.dlam)
		invAThe2 := 1 / (m.a * m.a * sC * m.dthe * m.dthe)
		psa0 := st.Psa.Row(j)
		psaN := st.Psa.Row(j - 1)
		psaS := st.Psa.Row(j + 1)
		dbar := cres.DBar.Row(j)
		dPsa := out.DPsa.Row(j)
		for i := r2.I0; i < r2.I1; i++ {
			o := i + xo
			lap := (psa0[o+1]-2*psa0[o]+psa0[o-1])*invALam2 +
				(sI1*(psaS[o]-psa0[o])-
					sI0*(psa0[o]-psaN[o]))*invAThe2
			dPsa[o] = ks*lap - physics.P0*dbar[o]
		}
	}
	return r2.Count()
}
