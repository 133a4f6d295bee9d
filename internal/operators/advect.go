package operators

import (
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// AdvScratch holds the reusable temporaries of the advection kernel as 2-D
// planes on the block's horizontal footprint: the unstaggered physical
// velocities of the level being swept, and σ̇ at the three staggered
// positions in two interface slots. Level k reads interfaces k and k+1, and
// interface k lives in slot k&1, so each level after a rect's first stages
// only its k+1 interface. Allocate once per integrator; passing nil to
// AdvectionScratch allocates fresh planes (convenient in tests, wasteful in
// loops).
type AdvScratch struct {
	uPhys *field.F2    // u at U points, level k
	vPhys *field.F2    // v at V points, level k
	sdotU [2]*field.F2 // σ̇ at U points, interfaces k and k+1
	sdotC [2]*field.F2 // σ̇ at centers, interfaces k and k+1
	sdotV [2]*field.F2 // σ̇ at V points, interfaces k and k+1
}

// NewAdvScratch allocates scratch on b's horizontal footprint. A sweep over r
// stages rows r.J0−1 … r.J1, so b need store only those, with the state's x
// halo (the planes' row windows use the state's x offsets).
func NewAdvScratch(b field.Block) *AdvScratch {
	sc := &AdvScratch{uPhys: field.NewF2(b), vPhys: field.NewF2(b)}
	for s := range sc.sdotU {
		sc.sdotU[s], sc.sdotC[s], sc.sdotV[s] = field.NewF2(b), field.NewF2(b), field.NewF2(b)
	}
	return sc
}

// AdvectionScratch evaluates the advection tendency L̃ (paper eq. 3):
//
//	dF = −L1(F) − L2(F) − L3(F),   F ∈ {U, V, Φ},   dp'_sa = 0,
//
// with
//
//	L1(F) = (1/2a sinθ)(2·∂(Fu)/∂λ − F·∂u/∂λ)
//	L2(F) = (1/2a sinθ)(2·∂(F v sinθ)/∂θ − F·∂(v sinθ)/∂θ)
//	L3(F) = ½(2·∂(F σ̇)/∂σ − F·∂σ̇/∂σ)
//
// over rect r. The advecting velocities are u = U/P, v = V/P at their
// staggered positions; σ̇ = PW/P at σ interfaces comes from the last Ĉ
// evaluation (cres), matching the paper's operator flow where L̃ itself
// performs no collective. The zonal fluxes of L1 use fourth-order
// interpolation, which produces the wide x footprints of Table 2. Every
// unstaggering averages the *transformed* field first and divides by the
// local P, keeping the composed y footprint within the Table-2 radius of
// one row. Inputs must be valid on r expanded by the Table-2 radii.
// Returns points updated.
//
// The kernel walks bounds-check-free windows of the x rows (field.Row cut
// by window) and never divides per point: every 1/P comes from sur's
// reciprocal planes, and 1/Δλ, 1/Δθ, 1/Δσ_k and 1/(2a·sinθ) are hoisted
// out of the i loop. refAdvection in ref_test.go is the dividing textbook
// formulation; the two agree to roundoff.
//
// A nil sc allocates the scratch planes per call, for tests and one-shot
// evaluations only; every integrator path passes persistent scratch.
func AdvectionScratch(g *grid.Grid, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect, sc *AdvScratch) int {
	w := Advection3D(g, st, sur, cres, out, r, sc)
	AdvectionPsa(out, r)
	return w
}

// Advection3D evaluates the 3-D components (dU, dV, dΦ) of L̃ over r,
// leaving dp'_sa untouched, one AdvectionLevel per level in increasing k.
// Returns points updated (4·|r|, counting the σ̇ staging as one component).
func Advection3D(g *grid.Grid, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect, sc *AdvScratch) int {
	if r.Empty() {
		return 0
	}
	if sc == nil {
		sc = NewAdvScratch(st.B)
	}
	w := 0
	for k := r.K0; k < r.K1; k++ {
		w += AdvectionLevel(g, st, sur, cres, out, r, k, sc)
	}
	return w
}

// AdvectionLevel is Advection3D on level k of r alone: it reads st at levels
// k−1 … k+1 and writes out at level k only, so out need store no other level.
// The physical velocities of level k and σ̇ at interface k+1 are staged into
// sc's planes just before the level's flux loops read them; interface k is
// the one the call for level k−1 staged, so the levels of r must be swept in
// increasing order from r.K0 (whose call stages its interface k too) with
// one sc, and no interface is staged twice. All other inputs are read-only.
// Returns points updated (4 per point of r's level k).
func AdvectionLevel(g *grid.Grid, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect, k int, sc *AdvScratch) int {
	if r.I1 <= r.I0 || r.J1 <= r.J0 {
		return 0
	}
	m := newMetric(g)
	mustShareX(st, out)
	if sc.uPhys.B.Hx != st.B.Hx {
		panic("operators: advection scratch and state must share the x halo")
	}
	o0, nx := st.U.XOff(r.I0), r.I1-r.I0 // all fields share the block, hence the offset

	invDthe := 1 / m.dthe
	invDlam := 1 / m.dlam
	if k == r.K0 {
		sc.stageSigmaDot(sur, cres, r, k, o0, nx)
	}
	// Physical velocities of level k at their staggered points, over r
	// grown by one cell in x and y (the widest offset at which the flux
	// loops read them): u rows J0−1 … J1, v rows J0 … J1 (v at interface
	// j needs P on row j−1, which row J0−1 may not have).
	lo, n := o0-1, nx+2
	for j := r.J0 - 1; j < r.J1+1; j++ {
		uRow := window(st.U.Row(j, k), lo, n)
		rPU := window(sur.rPU.Row(j), lo, n)
		uOut := window(sc.uPhys.Row(j), lo, n)
		for i := range uOut {
			uOut[i] = uRow[i] * rPU[i]
		}
		if j == r.J0-1 {
			continue
		}
		vRow := window(st.V.Row(j, k), lo, n)
		rPV := window(sur.rPV.Row(j), lo, n)
		vOut := window(sc.vPhys.Row(j), lo, n)
		for i := range vOut {
			vOut[i] = vRow[i] * rPV[i]
		}
	}
	// Interface k is in slot k&1 (staged by the call for level k−1, or
	// just above for r's first level); stage k+1 into the other slot.
	sc.stageSigmaDot(sur, cres, r, k+1, o0, nx)
	sdU0, sdU1 := sc.sdotU[k&1], sc.sdotU[(k+1)&1]
	sdC0, sdC1 := sc.sdotC[k&1], sc.sdotC[(k+1)&1]
	sdV0, sdV1 := sc.sdotV[k&1], sc.sdotV[(k+1)&1]

	// The flux loops' windows reach two points each side (the
	// fourth-order zonal interpolation); ee indexes the second east
	// neighbour.
	lo, n = o0-2, nx+4
	invDs := 1 / g.DSigma[k]
	for j := r.J0; j < r.J1; j++ {
		sCen := m.sinC(j)
		inv2aS := 1 / (2 * m.a * sCen)
		sI0, sI1 := m.sinI(j), m.sinI(j+1)

		u0 := window(st.U.Row(j, k), lo, n)
		uN := window(st.U.Row(j-1, k), lo, n)
		uS := window(st.U.Row(j+1, k), lo, n)
		uUp := window(st.U.Row(j, k-1), lo, n)
		uDn := window(st.U.Row(j, k+1), lo, n)
		p0 := window(st.Phi.Row(j, k), lo, n)
		pN := window(st.Phi.Row(j-1, k), lo, n)
		pS := window(st.Phi.Row(j+1, k), lo, n)
		pUp := window(st.Phi.Row(j, k-1), lo, n)
		pDn := window(st.Phi.Row(j, k+1), lo, n)
		up0 := window(sc.uPhys.Row(j), lo, n)
		vp0 := window(sc.vPhys.Row(j), lo, n)
		vpS := window(sc.vPhys.Row(j+1), lo, n)
		su0 := window(sdU0.Row(j), lo, n)
		su1 := window(sdU1.Row(j), lo, n)
		sc0 := window(sdC0.Row(j), lo, n)
		sc1 := window(sdC1.Row(j), lo, n)
		dU := window(out.DU.Row(j, k), lo, n)
		dPhi := window(out.DPhi.Row(j, k), lo, n)

		for ee := 4; ee < n; ee++ {
			ww, w, c, e := ee-4, ee-3, ee-2, ee-1
			// ================= F = U (at west face c) =================
			// L1(U): fluxes at cell centers with 4th-order interp of U.
			uc0 := 0.5 * (up0[w] + up0[c])
			uc1 := 0.5 * (up0[c] + up0[e])
			Uc0 := interp4(u0[ww], u0[w], u0[c], u0[e])
			Uc1 := interp4(u0[w], u0[c], u0[e], u0[ee])
			dFu := (Uc1*uc1 - Uc0*uc0) * invDlam
			dUl := (uc1 - uc0) * invDlam
			l1u := inv2aS * (2*dFu - u0[c]*dUl)

			// L2(U): meridional fluxes at interfaces; v at (face c, interface j).
			vf0 := 0.5 * (vp0[w] + vp0[c])
			vf1 := 0.5 * (vpS[w] + vpS[c])
			Ui0 := 0.5 * (uN[c] + u0[c])
			Ui1 := 0.5 * (u0[c] + uS[c])
			dFv := (Ui1*vf1*sI1 - Ui0*vf0*sI0) * invDthe
			dVs := (vf1*sI1 - vf0*sI0) * invDthe
			l2u := inv2aS * (2*dFv - u0[c]*dVs)

			// L3(U): vertical flux with σ̇ at U points.
			sd0 := su0[c]
			sd1 := su1[c]
			UI0 := 0.5 * (uUp[c] + u0[c])
			UI1 := 0.5 * (u0[c] + uDn[c])
			dFs := (UI1*sd1 - UI0*sd0) * invDs
			dS := (sd1 - sd0) * invDs
			l3u := 0.5 * (2*dFs - u0[c]*dS)

			dU[c] = -(l1u + l2u + l3u)

			// ================= F = Φ (at center) =================
			uf0 := up0[c]
			uf1 := up0[e]
			Pf0 := interp4(p0[ww], p0[w], p0[c], p0[e])
			Pf1 := interp4(p0[w], p0[c], p0[e], p0[ee])
			dFuP := (Pf1*uf1 - Pf0*uf0) * invDlam
			dUP := (uf1 - uf0) * invDlam
			l1p := inv2aS * (2*dFuP - p0[c]*dUP)

			vI0 := vp0[c]
			vI1 := vpS[c]
			Pi0 := 0.5 * (pN[c] + p0[c])
			Pi1 := 0.5 * (p0[c] + pS[c])
			dFvP := (Pi1*vI1*sI1 - Pi0*vI0*sI0) * invDthe
			dVsP := (vI1*sI1 - vI0*sI0) * invDthe
			l2p := inv2aS * (2*dFvP - p0[c]*dVsP)

			sc0v := sc0[c]
			sc1v := sc1[c]
			PI0 := 0.5 * (pUp[c] + p0[c])
			PI1 := 0.5 * (p0[c] + pDn[c])
			dFsP := (PI1*sc1v - PI0*sc0v) * invDs
			dSP := (sc1v - sc0v) * invDs
			l3p := 0.5 * (2*dFsP - p0[c]*dSP)

			dPhi[c] = -(l1p + l2p + l3p)
		}

		// ================= F = V (at interface j) =================
		dV := window(out.DV.Row(j, k), lo, n)
		if j < 1 || j > g.Ny-1 {
			clear(dV[2 : n-2])
			continue
		}
		sIj := m.sinI(j)
		inv2aSI := 1 / (2 * m.a * sIj)
		sCn := m.sinC(j - 1) // center north of the interface
		sCs := m.sinC(j)     // center south of the interface
		v0 := window(st.V.Row(j, k), lo, n)
		vN := window(st.V.Row(j-1, k), lo, n)
		vS := window(st.V.Row(j+1, k), lo, n)
		vUp := window(st.V.Row(j, k-1), lo, n)
		vDn := window(st.V.Row(j, k+1), lo, n)
		upN := window(sc.uPhys.Row(j-1), lo, n)
		sv0 := window(sdV0.Row(j), lo, n)
		sv1 := window(sdV1.Row(j), lo, n)
		rPN := window(sur.rP.Row(j-1), lo, n)
		rP0 := window(sur.rP.Row(j), lo, n)
		for ee := 4; ee < n; ee++ {
			ww, w, c, e := ee-4, ee-3, ee-2, ee-1
			// L1(V): u at (face c, interface j).
			ufI0 := 0.5 * (upN[c] + up0[c])
			ufI1 := 0.5 * (upN[e] + up0[e])
			Vf0 := interp4(v0[ww], v0[w], v0[c], v0[e])
			Vf1 := interp4(v0[w], v0[c], v0[e], v0[ee])
			dFuV := (Vf1*ufI1 - Vf0*ufI0) * invDlam
			dUV := (ufI1 - ufI0) * invDlam
			l1v := inv2aSI * (2*dFuV - v0[c]*dUV)

			// L2(V): fluxes at centers; v at centers j−1 and j is the
			// center-unstaggered V times the center 1/P (keeps the
			// composed footprint at one row).
			VcN := 0.5 * (vN[c] + v0[c])
			VcS := 0.5 * (v0[c] + vS[c])
			vcN := VcN * rPN[c]
			vcS := VcS * rP0[c]
			dFvV := (VcS*vcS*sCs - VcN*vcN*sCn) * invDthe
			dVsV := (vcS*sCs - vcN*sCn) * invDthe
			l2v := inv2aSI * (2*dFvV - v0[c]*dVsV)

			// L3(V): σ̇ at V points.
			sv0v := sv0[c]
			sv1v := sv1[c]
			VI0 := 0.5 * (vUp[c] + v0[c])
			VI1 := 0.5 * (v0[c] + vDn[c])
			dFsV := (VI1*sv1v - VI0*sv0v) * invDs
			dSV := (sv1v - sv0v) * invDs
			l3v := 0.5 * (2*dFsV - v0[c]*dSV)

			dV[c] = -(l1v + l2v + l3v)
		}
	}
	return 4 * nx * (r.J1 - r.J0)
}

// stageSigmaDot writes σ̇ at interface k into slot k&1 of the three σ̇
// planes, over r's rows; it is read only at (i, j) inside r, so PWI is
// needed on r expanded by one cell. The windows reach one point west; c is
// the point, w its west neighbour.
func (sc *AdvScratch) stageSigmaDot(sur *Surface, cres *CRes, r field.Rect, k, o0, nx int) {
	lo, n := o0-1, nx+1
	sdC, sdU, sdV := sc.sdotC[k&1], sc.sdotU[k&1], sc.sdotV[k&1]
	for j := r.J0; j < r.J1; j++ {
		rP := window(sur.rP.Row(j), lo, n)
		rPU := window(sur.rPU.Row(j), lo, n)
		rPV := window(sur.rPV.Row(j), lo, n)
		pw := window(cres.PWI.Row(j, k), lo, n)
		pwN := window(cres.PWI.Row(j-1, k), lo, n)
		sC := window(sdC.Row(j), lo, n)
		sU := window(sdU.Row(j), lo, n)
		sV := window(sdV.Row(j), lo, n)
		for c := 1; c < n; c++ {
			w := c - 1
			sC[c] = pw[c] * rP[c]
			sU[c] = 0.5 * (pw[w] + pw[c]) * rPU[c]
			sV[c] = 0.5 * (pwN[c] + pw[c]) * rPV[c]
		}
	}
}

// AdvectionPsa writes the trivial surface-pressure component of L̃ (zero)
// over r.Flat2D(). Like AdaptationPsa it runs once per tendency evaluation.
func AdvectionPsa(out *Tendency, r field.Rect) {
	r2 := r.Flat2D()
	for j := r2.J0; j < r2.J1; j++ {
		base := out.DPsa.Index(r2.I0, j)
		for o := 0; o < r2.I1-r2.I0; o++ {
			out.DPsa.Data[base+o] = 0
		}
	}
}

// interp4 is the fourth-order midpoint interpolation
// (−f0 + 7f1 + 7f2 − f3)/12 between f1 and f2.
func interp4(f0, f1, f2, f3 float64) float64 {
	const inv12 = 1.0 / 12
	return (-f0 + 7*(f1+f2) - f3) * inv12
}
