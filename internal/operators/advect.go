package operators

import (
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// AdvScratch holds the reusable temporaries of the advection kernel (the
// unstaggered physical velocities and σ̇ at the three staggered positions).
// Allocate once per integrator; passing nil to Advection allocates fresh
// temporaries (convenient in tests, expensive in loops).
type AdvScratch struct {
	uPhys *field.F3 // u at U points
	vPhys *field.F3 // v at V points
	sdotU *field.F3 // σ̇ at U points, interfaces
	sdotC *field.F3 // σ̇ at centers, interfaces
	sdotV *field.F3 // σ̇ at V points, interfaces
}

// NewAdvScratch allocates scratch for a block.
func NewAdvScratch(b field.Block) *AdvScratch {
	return &AdvScratch{
		uPhys: field.NewF3(b),
		vPhys: field.NewF3(b),
		sdotU: field.NewF3(b),
		sdotC: field.NewF3(b),
		sdotV: field.NewF3(b),
	}
}

// Advection evaluates the advection tendency L̃ (paper eq. 3):
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
// The kernel walks raw x-row slices (field.Row) instead of point accessors;
// the arithmetic per point is identical, expression by expression, to the
// straightforward formulation — the reference implementations in
// ref_test.go pin this bitwise.
//
// Advection (nil scratch) allocates five F3 temporaries per call and exists
// for tests and one-shot evaluations only; every integrator path must go
// through AdvectionScratch with persistent scratch.
func Advection(g *grid.Grid, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect) int {
	return AdvectionScratch(g, st, sur, cres, out, r, nil)
}

// AdvectionScratch is Advection with caller-provided scratch.
func AdvectionScratch(g *grid.Grid, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect, sc *AdvScratch) int {
	w := Advection3D(g, st, sur, cres, out, r, sc)
	AdvectionPsa(out, r)
	return w
}

// Advection3D evaluates the 3-D components (dU, dV, dΦ) of L̃ over r,
// leaving dp'_sa untouched. The σ̇ staging covers the k interfaces [K0, K1]
// of r inclusively, so concurrent k tiles must each bring their OWN scratch —
// adjacent tiles both write the shared boundary interface (the values agree,
// but the stores race). All other inputs are read-only and the tendency
// writes are disjoint per k. Returns points updated (4·|r|, counting the σ̇
// staging as one component).
func Advection3D(g *grid.Grid, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect, sc *AdvScratch) int {
	m := newMetric(g)
	if sc == nil {
		sc = NewAdvScratch(st.B)
	}

	// Physical velocities at their staggered points, over r grown by one
	// cell in x and y (the widest offset at which the flux loops read
	// them).
	ex := field.Rect{
		I0: r.I0 - 1, I1: r.I1 + 1,
		J0: r.J0 - 1, J1: r.J1 + 1, // u rows J0−1 … J1−1; v rows J0 … J1
		K0: r.K0, K1: r.K1,
	}

	xo := st.U.XOff(0) // all fields share the block, hence the offset
	for k := ex.K0; k < ex.K1; k++ {
		for j := ex.J0; j < ex.J1; j++ {
			pRow := sur.P.Row(j)
			pRowN := sur.P.Row(j - 1)
			uRow := st.U.Row(j, k)
			vRow := st.V.Row(j, k)
			uOut := sc.uPhys.Row(j, k)
			vOut := sc.vPhys.Row(j, k)
			computeV := j > ex.J0
			for i := ex.I0; i < ex.I1; i++ {
				o := i + xo
				pW := 0.5 * (pRow[o-1] + pRow[o])
				uOut[o] = uRow[o] / pW
				if computeV { // v at interface j needs P at row j−1
					pN := 0.5 * (pRowN[o] + pRow[o])
					vOut[o] = vRow[o] / pN
				}
			}
		}
	}
	// σ̇ at the interfaces [K0, K1] of the update rect; read only at (i,j,k)
	// with (i, j) inside r, so PWI is needed on r expanded by one cell.
	for k := r.K0; k <= r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			pRow := sur.P.Row(j)
			pRowN := sur.P.Row(j - 1)
			pwRow := cres.PWI.Row(j, k)
			pwRowN := cres.PWI.Row(j-1, k)
			sC := sc.sdotC.Row(j, k)
			sU := sc.sdotU.Row(j, k)
			sV := sc.sdotV.Row(j, k)
			for i := r.I0; i < r.I1; i++ {
				o := i + xo
				pW := 0.5 * (pRow[o-1] + pRow[o])
				pN := 0.5 * (pRowN[o] + pRow[o])
				pC := pRow[o]
				pw := pwRow[o]
				sC[o] = pw / pC
				sU[o] = 0.5 * (pwRow[o-1] + pw) / pW
				sV[o] = 0.5 * (pwRowN[o] + pw) / pN
			}
		}
	}

	dthe := m.dthe
	dlam := m.dlam
	for k := r.K0; k < r.K1; k++ {
		ds := g.DSigma[k]
		for j := r.J0; j < r.J1; j++ {
			sCen := m.sinC(j)
			inv2aS := 1 / (2 * m.a * sCen)
			sI0, sI1 := m.sinI(j), m.sinI(j+1)

			u0 := st.U.Row(j, k)
			uN := st.U.Row(j-1, k)
			uS := st.U.Row(j+1, k)
			uUp := st.U.Row(j, k-1)
			uDn := st.U.Row(j, k+1)
			p0 := st.Phi.Row(j, k)
			pN := st.Phi.Row(j-1, k)
			pS := st.Phi.Row(j+1, k)
			pUp := st.Phi.Row(j, k-1)
			pDn := st.Phi.Row(j, k+1)
			up0 := sc.uPhys.Row(j, k)
			vp0 := sc.vPhys.Row(j, k)
			vpS := sc.vPhys.Row(j+1, k)
			su0 := sc.sdotU.Row(j, k)
			su1 := sc.sdotU.Row(j, k+1)
			sc0 := sc.sdotC.Row(j, k)
			sc1 := sc.sdotC.Row(j, k+1)
			dU := out.DU.Row(j, k)
			dPhi := out.DPhi.Row(j, k)

			for i := r.I0; i < r.I1; i++ {
				o := i + xo
				// ================= F = U (at west face i) =================
				// L1(U): fluxes at cell centers with 4th-order interp of U.
				uc0 := 0.5 * (up0[o-1] + up0[o])
				uc1 := 0.5 * (up0[o] + up0[o+1])
				Uc0 := interp4(u0[o-2], u0[o-1], u0[o], u0[o+1])
				Uc1 := interp4(u0[o-1], u0[o], u0[o+1], u0[o+2])
				dFu := (Uc1*uc1 - Uc0*uc0) / dlam
				dUl := (uc1 - uc0) / dlam
				l1u := inv2aS * (2*dFu - u0[o]*dUl)

				// L2(U): meridional fluxes at interfaces; v at (face i, interface j).
				vf0 := 0.5 * (vp0[o-1] + vp0[o])
				vf1 := 0.5 * (vpS[o-1] + vpS[o])
				Ui0 := 0.5 * (uN[o] + u0[o])
				Ui1 := 0.5 * (u0[o] + uS[o])
				dFv := (Ui1*vf1*sI1 - Ui0*vf0*sI0) / dthe
				dVs := (vf1*sI1 - vf0*sI0) / dthe
				l2u := inv2aS * (2*dFv - u0[o]*dVs)

				// L3(U): vertical flux with σ̇ at U points.
				sd0 := su0[o]
				sd1 := su1[o]
				UI0 := 0.5 * (uUp[o] + u0[o])
				UI1 := 0.5 * (u0[o] + uDn[o])
				dFs := (UI1*sd1 - UI0*sd0) / ds
				dS := (sd1 - sd0) / ds
				l3u := 0.5 * (2*dFs - u0[o]*dS)

				dU[o] = -(l1u + l2u + l3u)

				// ================= F = Φ (at center) =================
				uf0 := up0[o]
				uf1 := up0[o+1]
				Pf0 := interp4(p0[o-2], p0[o-1], p0[o], p0[o+1])
				Pf1 := interp4(p0[o-1], p0[o], p0[o+1], p0[o+2])
				dFuP := (Pf1*uf1 - Pf0*uf0) / dlam
				dUP := (uf1 - uf0) / dlam
				l1p := inv2aS * (2*dFuP - p0[o]*dUP)

				vI0 := vp0[o]
				vI1 := vpS[o]
				Pi0 := 0.5 * (pN[o] + p0[o])
				Pi1 := 0.5 * (p0[o] + pS[o])
				dFvP := (Pi1*vI1*sI1 - Pi0*vI0*sI0) / dthe
				dVsP := (vI1*sI1 - vI0*sI0) / dthe
				l2p := inv2aS * (2*dFvP - p0[o]*dVsP)

				sc0v := sc0[o]
				sc1v := sc1[o]
				PI0 := 0.5 * (pUp[o] + p0[o])
				PI1 := 0.5 * (p0[o] + pDn[o])
				dFsP := (PI1*sc1v - PI0*sc0v) / ds
				dSP := (sc1v - sc0v) / ds
				l3p := 0.5 * (2*dFsP - p0[o]*dSP)

				dPhi[o] = -(l1p + l2p + l3p)
			}

			// ================= F = V (at interface j) =================
			dV := out.DV.Row(j, k)
			if j >= 1 && j <= g.Ny-1 {
				sIj := m.sinI(j)
				inv2aSI := 1 / (2 * m.a * sIj)
				sCn := m.sinC(j - 1) // center north of the interface
				sCs := m.sinC(j)     // center south of the interface
				v0 := st.V.Row(j, k)
				vN := st.V.Row(j-1, k)
				vS := st.V.Row(j+1, k)
				vUp := st.V.Row(j, k-1)
				vDn := st.V.Row(j, k+1)
				upN := sc.uPhys.Row(j-1, k)
				sv0 := sc.sdotV.Row(j, k)
				sv1 := sc.sdotV.Row(j, k+1)
				surPN := sur.P.Row(j - 1)
				surP0 := sur.P.Row(j)
				for i := r.I0; i < r.I1; i++ {
					o := i + xo
					// L1(V): u at (face i, interface j).
					ufI0 := 0.5 * (upN[o] + up0[o])
					ufI1 := 0.5 * (upN[o+1] + up0[o+1])
					Vf0 := interp4(v0[o-2], v0[o-1], v0[o], v0[o+1])
					Vf1 := interp4(v0[o-1], v0[o], v0[o+1], v0[o+2])
					dFuV := (Vf1*ufI1 - Vf0*ufI0) / dlam
					dUV := (ufI1 - ufI0) / dlam
					l1v := inv2aSI * (2*dFuV - v0[o]*dUV)

					// L2(V): fluxes at centers; v at centers j−1 and j is the
					// center-unstaggered V divided by the center P (keeps
					// the composed footprint at one row).
					VcN := 0.5 * (vN[o] + v0[o])
					VcS := 0.5 * (v0[o] + vS[o])
					vcN := VcN / surPN[o]
					vcS := VcS / surP0[o]
					dFvV := (VcS*vcS*sCs - VcN*vcN*sCn) / dthe
					dVsV := (vcS*sCs - vcN*sCn) / dthe
					l2v := inv2aSI * (2*dFvV - v0[o]*dVsV)

					// L3(V): σ̇ at V points.
					sv0v := sv0[o]
					sv1v := sv1[o]
					VI0 := 0.5 * (vUp[o] + v0[o])
					VI1 := 0.5 * (v0[o] + vDn[o])
					dFsV := (VI1*sv1v - VI0*sv0v) / ds
					dSV := (sv1v - sv0v) / ds
					l3v := 0.5 * (2*dFsV - v0[o]*dSV)

					dV[o] = -(l1v + l2v + l3v)
				}
			} else {
				for i := r.I0; i < r.I1; i++ {
					dV[i+xo] = 0
				}
			}
		}
	}

	return 4 * r.Count()
}

// AdvectionPsa writes the trivial surface-pressure component of L̃ (zero)
// over r.Flat2D(). Like AdaptationPsa it runs once per tendency evaluation,
// outside any k tiling.
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
	return (-f0 + 7*(f1+f2) - f3) / 12
}
