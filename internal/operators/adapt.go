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
//	dU   = −P_λ⁽¹⁾ − P_λ⁽²⁾ − f*·V                  (at U points)
//	dV   = −P_θ⁽¹⁾ − P_θ⁽²⁾ + f*·U                  (at V points)
//	dΦ   = b·(Ω⁽¹⁾ + Ω_θ⁽²⁾ + Ω_λ⁽²⁾)               (at centers)
//	dp'_sa = κ*·k_sa·∇²p'_sa − p0·D̄                  (2-D)
//
// over rect r (dV additionally skips pole interfaces, where V ≡ 0). θ is
// colatitude and V points south, so the Coriolis pair is (−f*·V, +f*·U): a
// westerly is turned toward the equator (TestRotationSense). Inputs:
// st valid on r expanded by the Table-1 radii, sur recomputed from st.Psa,
// cres from CSumWith. The z reads are one-sided (k and k+1 only), which is what
// licenses the asymmetric deep halo. Returns points updated.
func Adaptation(g *grid.Grid, cfg AdaptConfig, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect) int {
	return Adaptation3D(g, st, sur, cres, out, r) + AdaptationPsa(g, cfg, st, cres, out, r)
}

// Adaptation3D evaluates the three 3-D components (dU, dV, dΦ) of the
// adaptation tendency over r, one AdaptationLevel per level. Writes are
// confined to r and all inputs are read-only, so any disjoint cover of r (the
// overlapped interior/boundary split, or one level at a time) produces
// bitwise the monolithic result. Returns points updated (3·|r|).
func Adaptation3D(g *grid.Grid, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect) int {
	w := 0
	for k := r.K0; k < r.K1; k++ {
		w += AdaptationLevel(g, st, sur, cres, out, r, k)
	}
	return w
}

// AdaptationLevel is Adaptation3D on level k of r alone: it reads st at
// levels k and k+1 only and writes out at level k, so out need store no other
// level. Returns points updated (3 per point of r's level k).
func AdaptationLevel(g *grid.Grid, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect, k int) int {
	if r.I1 <= r.I0 || r.J1 <= r.J0 {
		return 0
	}
	mustShareX(st, out)
	m := newMetric(g)
	// Row windows span the rect's x extent plus Table 1's x reach of one
	// point each side; the loop variable e indexes the east neighbour, c the
	// point and w its west neighbour.
	lo, n := st.Phi.XOff(r.I0)-1, r.I1-r.I0+2
	bInvADthe := m.b / m.haDthe
	halfInvADthe := 0.5 / m.haDthe

	invSig := 1 / g.Sigma[k]
	for j := r.J0; j < r.J1; j++ {
		sC := m.sinC(j)
		cC := m.cosC(j)
		invASinDlam := 1 / (m.a * sC * m.dlam)
		bInvASinDlam := m.b * invASinDlam
		halfInvASinDlam := 0.5 * invASinDlam
		f0 := 2 * physics.Omega * cC
		cotA := cC / (m.a * sC)

		phi0 := window(st.Phi.Row(j, k), lo, n)
		phiDn := window(st.Phi.Row(j, k+1), lo, n)
		phiN := window(st.Phi.Row(j-1, k), lo, n)
		phiNDn := window(st.Phi.Row(j-1, k+1), lo, n)
		u0 := window(st.U.Row(j, k), lo, n)
		uN := window(st.U.Row(j-1, k), lo, n)
		v0 := window(st.V.Row(j, k), lo, n)
		vS := window(st.V.Row(j+1, k), lo, n)
		pes0 := window(sur.Pes.Row(j), lo, n)
		pesN := window(sur.Pes.Row(j-1), lo, n)
		pesS := window(sur.Pes.Row(j+1), lo, n)
		rP := window(sur.rP.Row(j), lo, n)
		rPes := window(sur.rPes.Row(j), lo, n)
		rPU := window(sur.rPU.Row(j), lo, n)
		rPesU := window(sur.rPesU.Row(j), lo, n)
		pw0 := window(cres.PWI.Row(j, k), lo, n)
		pw1 := window(cres.PWI.Row(j, k+1), lo, n)
		dbar := window(cres.DBar.Row(j), lo, n)
		dU := window(out.DU.Row(j, k), lo, n)
		dPhi := window(out.DPhi.Row(j, k), lo, n)
		dV := window(out.DV.Row(j, k), lo, n)

		// dV lives at interface j, the north face of row j. The loop
		// computes it on every row; a pole interface (V ≡ 0) has no
		// metric, and its row is cleared afterwards.
		pole := j < 1 || j > g.Ny-1
		rPV := window(sur.rPV.Row(j), lo, n)
		rPesV := window(sur.rPesV.Row(j), lo, n)
		var f0I, cotAI float64
		if !pole {
			cI := g.CosI[j]
			f0I = 2 * physics.Omega * cI
			cotAI = cI / (m.a * m.sinI(j))
		}

		for e := 2; e < n; e++ {
			w, c := e-2, e-1
			// ---- dU at U point (west face of c) ----
			// Φ̃ = vertical k,k+1 average (hydrostatic coupling; the
			// z mirror makes k+1 safe at the bottom).
			phiT0 := 0.5 * (phi0[w] + phiDn[w])
			phiT1 := 0.5 * (phi0[c] + phiDn[c])
			pl1 := bInvASinDlam * (phiT1 - phiT0)

			phiW := 0.5 * (phi0[w] + phi0[c])
			pl2 := bInvASinDlam * phiW * rPesU[c] * (pes0[c] - pes0[w])

			uPhys := u0[c] * rPU[c]
			fstar := f0 + uPhys*cotA
			v4 := 0.25 * (v0[w] + vS[w] + v0[c] + vS[c])

			dU[c] = -pl1 - pl2 - fstar*v4

			// ---- dΦ at center ----
			omega1 := (0.5*(pw0[c]+pw1[c])*invSig - dbar[c]) * rP[c]

			vC := 0.5 * (v0[c] + vS[c])
			dpesDy := (pesS[c] - pesN[c]) * halfInvADthe
			omegaT2 := vC * rPes[c] * dpesDy

			uC := 0.5 * (u0[c] + u0[e])
			dpesDx := (pes0[e] - pes0[w]) * halfInvASinDlam
			omegaL2 := uC * rPes[c] * dpesDx

			dPhi[c] = m.b * (omega1 + omegaT2 + omegaL2)

			// ---- dV at V point (interface j) ----
			phiTN := 0.5 * (phiN[c] + phiNDn[c])
			pt1 := bInvADthe * (phiT1 - phiTN)

			phiV := 0.5 * (phiN[c] + phi0[c])
			pt2 := bInvADthe * phiV * rPesV[c] * (pes0[c] - pesN[c])

			u4 := 0.25 * (uN[c] + uN[e] + u0[c] + u0[e])
			fstarI := f0I + u4*rPV[c]*cotAI

			dV[c] = -pt1 - pt2 + fstarI*u4
		}
		if pole {
			clear(dV[1 : n-1])
		}
	}
	return 3 * (r.I1 - r.I0) * (r.J1 - r.J0)
}

// mustShareX panics unless the tendency's rows start at the same longitude
// as the state's, which every kernel's row windows assume.
func mustShareX(st *state.State, out *Tendency) {
	if out.B.Hx != st.B.Hx {
		panic("operators: tendency and state must share the x halo")
	}
}

// AdaptationPsa evaluates the 2-D surface-pressure component dp'_sa of the
// adaptation tendency over r.Flat2D(). It must run exactly once per tendency
// evaluation (never per k tile). Returns points updated.
func AdaptationPsa(g *grid.Grid, cfg AdaptConfig, st *state.State, cres *CRes, out *Tendency, r field.Rect) int {
	mustShareX(st, out)
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
