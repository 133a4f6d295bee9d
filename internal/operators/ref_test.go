package operators

import (
	"math"
	"testing"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
	"cadycore/internal/state"
)

// This file pins the production kernels against straightforward
// point-accessor reference implementations of the textbook formulas. The
// smoothing kernels reorder memory access, never arithmetic, so they must
// match BITWISE. Â, L̃ and D(P) do not divide per point: they multiply by
// the reciprocal planes of Surface and by hoisted 1/Δλ, 1/Δθ, 1/Δσ_k, 1/σ_k
// and 1/12, and a·(1/b) differs from a/b in the last bit. Their references
// keep every division, and the comparison is per component to
// refTol·max|ref|. Roundoff passes: Â and D(P) measure ≤ 4e-16, L̃ ≤ 7e-15
// (its flux-form differences cancel). A reciprocal or neighbour read one
// point off fails by 1e-5 or more on this smooth state. Only the reference
// implementations live here, in test code.

// refTol bounds the roundoff between a division-free kernel and its
// dividing reference, relative to the reference's largest magnitude.
const refTol = 1e-14

// matchesRef fails t unless got is finite on the owned region and within
// refTol·max|ref| of ref there.
func matchesRef(t *testing.T, name string, got, ref *field.F3) {
	t.Helper()
	if !field.AllFiniteOwned(got) {
		t.Errorf("%s: non-finite values", name)
		return
	}
	d, scale := field.MaxAbsDiffOwned(got, ref), maxAbsOwned(ref)
	if d > refTol*scale {
		t.Errorf("%s differs from reference by %g (%.2g of max|ref| = %g, bound %g)", name, d, d/scale, scale, refTol)
	}
	t.Logf("%s: max|Δ| = %.2g of max|ref|", name, d/scale)
}

// maxAbsOwned returns max |f| over the owned region.
func maxAbsOwned(f *field.F3) float64 { return field.MaxAbsDiffOwned(f, field.NewF3(f.B)) }

// refAdaptation is Adaptation written with field.At accessors.
func refAdaptation(g *grid.Grid, cfg AdaptConfig, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect) {
	m := newMetric(g)
	for k := r.K0; k < r.K1; k++ {
		sigMid := g.Sigma[k]
		for j := r.J0; j < r.J1; j++ {
			sC := m.sinC(j)
			cC := m.cosC(j)
			invASinDlam := 1 / (m.a * sC * m.dlam)
			for i := r.I0; i < r.I1; i++ {
				phiT0 := 0.5 * (st.Phi.At(i-1, j, k) + st.Phi.At(i-1, j, k+1))
				phiT1 := 0.5 * (st.Phi.At(i, j, k) + st.Phi.At(i, j, k+1))
				pl1 := m.b * (phiT1 - phiT0) * invASinDlam

				pesW := 0.5 * (sur.Pes.At(i-1, j) + sur.Pes.At(i, j))
				phiW := 0.5 * (st.Phi.At(i-1, j, k) + st.Phi.At(i, j, k))
				pl2 := m.b * phiW / pesW * (sur.Pes.At(i, j) - sur.Pes.At(i-1, j)) * invASinDlam

				pW := 0.5 * (sur.P.At(i-1, j) + sur.P.At(i, j))
				uPhys := st.U.At(i, j, k) / pW
				fstar := 2*physics.Omega*cC + uPhys*cC/(m.a*sC)
				v4 := 0.25 * (st.V.At(i-1, j, k) + st.V.At(i-1, j+1, k) +
					st.V.At(i, j, k) + st.V.At(i, j+1, k))
				out.DU.Set(i, j, k, -pl1-pl2-fstar*v4)

				pC := sur.P.At(i, j)
				pesC := sur.Pes.At(i, j)
				wMid := 0.5 * (cres.PWI.At(i, j, k) + cres.PWI.At(i, j, k+1)) / pC
				omega1 := wMid/sigMid - cres.DBar.At(i, j)/pC
				vC := 0.5 * (st.V.At(i, j, k) + st.V.At(i, j+1, k))
				dpesDy := (sur.Pes.At(i, j+1) - sur.Pes.At(i, j-1)) / (2 * m.haDthe)
				omegaT2 := vC / pesC * dpesDy
				uC := 0.5 * (st.U.At(i, j, k) + st.U.At(i+1, j, k))
				dpesDx := (sur.Pes.At(i+1, j) - sur.Pes.At(i-1, j)) / (2 * m.a * sC * m.dlam)
				omegaL2 := uC / pesC * dpesDx
				out.DPhi.Set(i, j, k, m.b*(omega1+omegaT2+omegaL2))
			}
			if j >= 1 && j <= g.Ny-1 {
				sI := m.sinI(j)
				cI := g.CosI[j]
				for i := r.I0; i < r.I1; i++ {
					phiT0 := 0.5 * (st.Phi.At(i, j-1, k) + st.Phi.At(i, j-1, k+1))
					phiT1 := 0.5 * (st.Phi.At(i, j, k) + st.Phi.At(i, j, k+1))
					pt1 := m.b * (phiT1 - phiT0) / m.haDthe
					pesV := 0.5 * (sur.Pes.At(i, j-1) + sur.Pes.At(i, j))
					phiV := 0.5 * (st.Phi.At(i, j-1, k) + st.Phi.At(i, j, k))
					pt2 := m.b * phiV / pesV * (sur.Pes.At(i, j) - sur.Pes.At(i, j-1)) / m.haDthe
					u4 := 0.25 * (st.U.At(i, j-1, k) + st.U.At(i+1, j-1, k) +
						st.U.At(i, j, k) + st.U.At(i+1, j, k))
					pV := 0.5 * (sur.P.At(i, j-1) + sur.P.At(i, j))
					uPhys := u4 / pV
					fstar := 2*physics.Omega*cI + uPhys*cI/(m.a*sI)
					out.DV.Set(i, j, k, -pt1-pt2+fstar*u4)
				}
			} else {
				for i := r.I0; i < r.I1; i++ {
					out.DV.Set(i, j, k, 0)
				}
			}
		}
	}
	r2 := r.Flat2D()
	ks := cfg.KappaStar * physics.Ksa
	for j := r2.J0; j < r2.J1; j++ {
		sC := m.sinC(j)
		sI0, sI1 := m.sinI(j), m.sinI(j+1)
		invALam2 := 1 / (m.a * sC * m.dlam * m.a * sC * m.dlam)
		invAThe2 := 1 / (m.a * m.a * sC * m.dthe * m.dthe)
		for i := r2.I0; i < r2.I1; i++ {
			lap := (st.Psa.At(i+1, j)-2*st.Psa.At(i, j)+st.Psa.At(i-1, j))*invALam2 +
				(sI1*(st.Psa.At(i, j+1)-st.Psa.At(i, j))-
					sI0*(st.Psa.At(i, j)-st.Psa.At(i, j-1)))*invAThe2
			out.DPsa.Set(i, j, ks*lap-physics.P0*cres.DBar.At(i, j))
		}
	}
}

// refDivP is DivP written with accessors.
func refDivP(g *grid.Grid, u, v *field.F3, sur *Surface, out *field.F3, r field.Rect) {
	m := newMetric(g)
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			invASin := 1 / (m.a * m.sinC(j))
			sI0, sI1 := m.sinI(j), m.sinI(j+1)
			for i := r.I0; i < r.I1; i++ {
				pW := 0.5 * (sur.P.At(i-1, j) + sur.P.At(i, j))
				pE := 0.5 * (sur.P.At(i, j) + sur.P.At(i+1, j))
				dPUdl := (pE*u.At(i+1, j, k) - pW*u.At(i, j, k)) / m.dlam
				pN := 0.5 * (sur.P.At(i, j-1) + sur.P.At(i, j))
				pS := 0.5 * (sur.P.At(i, j) + sur.P.At(i, j+1))
				dPVdt := (pS*v.At(i, j+1, k)*sI1 - pN*v.At(i, j, k)*sI0) / m.dthe
				out.Set(i, j, k, invASin*(dPUdl+dPVdt))
			}
		}
	}
}

// refAdvection is Advection3D written with accessors: the physical
// velocities and σ̇ are formed where they are read, each dividing by its own
// P average.
func refAdvection(g *grid.Grid, st *state.State, sur *Surface, cres *CRes, out *Tendency, r field.Rect) {
	m := newMetric(g)
	P := sur.P.At
	U, V, Phi, PW := st.U.At, st.V.At, st.Phi.At, cres.PWI.At
	uP := func(i, j, k int) float64 { return U(i, j, k) / (0.5 * (P(i-1, j) + P(i, j))) }
	vP := func(i, j, k int) float64 { return V(i, j, k) / (0.5 * (P(i, j-1) + P(i, j))) }
	sdC := func(i, j, k int) float64 { return PW(i, j, k) / P(i, j) }
	sdU := func(i, j, k int) float64 {
		return 0.5 * (PW(i-1, j, k) + PW(i, j, k)) / (0.5 * (P(i-1, j) + P(i, j)))
	}
	sdV := func(i, j, k int) float64 {
		return 0.5 * (PW(i, j-1, k) + PW(i, j, k)) / (0.5 * (P(i, j-1) + P(i, j)))
	}
	for k := r.K0; k < r.K1; k++ {
		ds := g.DSigma[k]
		for j := r.J0; j < r.J1; j++ {
			inv2aS := 1 / (2 * m.a * m.sinC(j))
			sI0, sI1 := m.sinI(j), m.sinI(j+1)
			for i := r.I0; i < r.I1; i++ {
				uc0 := 0.5 * (uP(i-1, j, k) + uP(i, j, k))
				uc1 := 0.5 * (uP(i, j, k) + uP(i+1, j, k))
				Uc0 := (-U(i-2, j, k) + 7*(U(i-1, j, k)+U(i, j, k)) - U(i+1, j, k)) / 12
				Uc1 := (-U(i-1, j, k) + 7*(U(i, j, k)+U(i+1, j, k)) - U(i+2, j, k)) / 12
				l1u := inv2aS * (2*(Uc1*uc1-Uc0*uc0)/m.dlam - U(i, j, k)*(uc1-uc0)/m.dlam)
				vf0 := 0.5 * (vP(i-1, j, k) + vP(i, j, k))
				vf1 := 0.5 * (vP(i-1, j+1, k) + vP(i, j+1, k))
				Ui0 := 0.5 * (U(i, j-1, k) + U(i, j, k))
				Ui1 := 0.5 * (U(i, j, k) + U(i, j+1, k))
				l2u := inv2aS * (2*(Ui1*vf1*sI1-Ui0*vf0*sI0)/m.dthe - U(i, j, k)*(vf1*sI1-vf0*sI0)/m.dthe)
				sd0, sd1 := sdU(i, j, k), sdU(i, j, k+1)
				UI0 := 0.5 * (U(i, j, k-1) + U(i, j, k))
				UI1 := 0.5 * (U(i, j, k) + U(i, j, k+1))
				l3u := 0.5 * (2*(UI1*sd1-UI0*sd0)/ds - U(i, j, k)*(sd1-sd0)/ds)
				out.DU.Set(i, j, k, -(l1u + l2u + l3u))

				uf0, uf1 := uP(i, j, k), uP(i+1, j, k)
				Pf0 := (-Phi(i-2, j, k) + 7*(Phi(i-1, j, k)+Phi(i, j, k)) - Phi(i+1, j, k)) / 12
				Pf1 := (-Phi(i-1, j, k) + 7*(Phi(i, j, k)+Phi(i+1, j, k)) - Phi(i+2, j, k)) / 12
				l1p := inv2aS * (2*(Pf1*uf1-Pf0*uf0)/m.dlam - Phi(i, j, k)*(uf1-uf0)/m.dlam)
				vI0, vI1 := vP(i, j, k), vP(i, j+1, k)
				Pi0 := 0.5 * (Phi(i, j-1, k) + Phi(i, j, k))
				Pi1 := 0.5 * (Phi(i, j, k) + Phi(i, j+1, k))
				l2p := inv2aS * (2*(Pi1*vI1*sI1-Pi0*vI0*sI0)/m.dthe - Phi(i, j, k)*(vI1*sI1-vI0*sI0)/m.dthe)
				s0, s1 := sdC(i, j, k), sdC(i, j, k+1)
				PI0 := 0.5 * (Phi(i, j, k-1) + Phi(i, j, k))
				PI1 := 0.5 * (Phi(i, j, k) + Phi(i, j, k+1))
				l3p := 0.5 * (2*(PI1*s1-PI0*s0)/ds - Phi(i, j, k)*(s1-s0)/ds)
				out.DPhi.Set(i, j, k, -(l1p + l2p + l3p))
			}
			if j < 1 || j > g.Ny-1 {
				for i := r.I0; i < r.I1; i++ {
					out.DV.Set(i, j, k, 0)
				}
				continue
			}
			inv2aSI := 1 / (2 * m.a * m.sinI(j))
			sCn, sCs := m.sinC(j-1), m.sinC(j)
			for i := r.I0; i < r.I1; i++ {
				ufI0 := 0.5 * (uP(i, j-1, k) + uP(i, j, k))
				ufI1 := 0.5 * (uP(i+1, j-1, k) + uP(i+1, j, k))
				Vf0 := (-V(i-2, j, k) + 7*(V(i-1, j, k)+V(i, j, k)) - V(i+1, j, k)) / 12
				Vf1 := (-V(i-1, j, k) + 7*(V(i, j, k)+V(i+1, j, k)) - V(i+2, j, k)) / 12
				l1v := inv2aSI * (2*(Vf1*ufI1-Vf0*ufI0)/m.dlam - V(i, j, k)*(ufI1-ufI0)/m.dlam)
				VcN := 0.5 * (V(i, j-1, k) + V(i, j, k))
				VcS := 0.5 * (V(i, j, k) + V(i, j+1, k))
				vcN := VcN / P(i, j-1)
				vcS := VcS / P(i, j)
				l2v := inv2aSI * (2*(VcS*vcS*sCs-VcN*vcN*sCn)/m.dthe - V(i, j, k)*(vcS*sCs-vcN*sCn)/m.dthe)
				s0, s1 := sdV(i, j, k), sdV(i, j, k+1)
				VI0 := 0.5 * (V(i, j, k-1) + V(i, j, k))
				VI1 := 0.5 * (V(i, j, k) + V(i, j, k+1))
				l3v := 0.5 * (2*(VI1*s1-VI0*s0)/ds - V(i, j, k)*(s1-s0)/ds)
				out.DV.Set(i, j, k, -(l1v + l2v + l3v))
			}
		}
	}
}

// delta4X returns (δ⁴_λ φ) at (i, j, k): φ_{i−2} − 4φ_{i−1} + 6φ_i − 4φ_{i+1} + φ_{i+2}.
func delta4X(f *field.F3, i, j, k int) float64 {
	return f.At(i-2, j, k) - 4*f.At(i-1, j, k) + 6*f.At(i, j, k) - 4*f.At(i+1, j, k) + f.At(i+2, j, k)
}

// refP1 and refP2 are the smoothing kernels with accessors. refP2 reads all
// five rows of every row's window, past a pole the mirror ghosts too.
func refP1(s *Smoother, in, out *field.F3, r field.Rect) {
	c := s.beta / 16
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				out.Set(i, j, k, in.At(i, j, k)-c*delta4X(in, i, j, k))
			}
		}
	}
}

func refP2(s *Smoother, in, out *field.F3, r field.Rect) {
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				acc := 0.0
				for d := -2; d <= 2; d++ {
					acc += s.rows[j][0][d+2]*in.At(i, j+d, k) + s.rows[j][1][d+2]*delta4X(in, i, j+d, k)
				}
				out.Set(i, j, k, acc)
			}
		}
	}
}

// refState is smoothState with its winds sheared in σ. smoothState's winds
// are the same on every level, so D(P) is too and Ĉ's interface flux
// PW = σ·D̄ − ∫₀^σ D(P) dσ' vanishes, which would leave σ̇ (L3) and the PW
// term of Ω⁽¹⁾ untested.
func refState(g *grid.Grid, b field.Block) *state.State {
	st := smoothState(g, b)
	o := b.Owned()
	for k := o.K0; k < o.K1; k++ {
		s := 0.5 + g.Sigma[k]
		for j := o.J0; j < o.J1; j++ {
			for i := o.I0; i < o.I1; i++ {
				st.U.Set(i, j, k, s*st.U.At(i, j, k))
				st.V.Set(i, j, k, s*st.V.At(i, j, k))
			}
		}
	}
	st.FillLocalBounds(st.B.WithHalo())
	return st
}

// refRects are the update rects the kernel/reference tests cover: the owned
// block, and an interior rect whose row windows start inside the rows.
func refRects(b field.Block) []field.Rect {
	return []field.Rect{b.Owned(), {I0: 3, I1: 11, J0: 2, J1: 8, K0: 1, K1: 5}}
}

func TestAdaptationMatchesReference(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := refState(g, b)
	sur, cres, _ := prepare(g, st)
	cfg := DefaultAdaptConfig()
	for _, r := range refRects(b) {
		fast := NewTendency(b)
		ref := NewTendency(b)
		Adaptation(g, cfg, st, sur, cres, fast, r)
		refAdaptation(g, cfg, st, sur, cres, ref, r)
		matchesRef(t, "DU on "+r.String(), fast.DU, ref.DU)
		matchesRef(t, "DV on "+r.String(), fast.DV, ref.DV)
		matchesRef(t, "DPhi on "+r.String(), fast.DPhi, ref.DPhi)
		if d := field.MaxAbsDiffOwned(&fast.DPsa.F3, &ref.DPsa.F3); d != 0 {
			t.Errorf("DPsa on %v differs from reference by %g (must be bitwise)", r, d)
		}
	}
}

func TestAdvectionMatchesReference(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := refState(g, b)
	sur, cres, _ := prepare(g, st)
	for _, r := range refRects(b) {
		fast := NewTendency(b)
		ref := NewTendency(b)
		AdvectionScratch(g, st, sur, cres, fast, r, nil)
		refAdvection(g, st, sur, cres, ref, r)
		matchesRef(t, "DU on "+r.String(), fast.DU, ref.DU)
		matchesRef(t, "DV on "+r.String(), fast.DV, ref.DV)
		matchesRef(t, "DPhi on "+r.String(), fast.DPhi, ref.DPhi)
	}
}

func TestDivPMatchesReference(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := refState(g, b)
	sur := NewSurface(b)
	sur.Update(st.Psa)
	for _, r := range refRects(b) {
		fast := field.NewF3(b)
		ref := field.NewF3(b)
		DivP(g, st.U, st.V, sur, fast, r)
		refDivP(g, st.U, st.V, sur, ref, r)
		matchesRef(t, "DivP on "+r.String(), fast, ref)
	}
}

// TestSurfaceReciprocals: every reciprocal plane is 1/(the average the
// kernels used to divide by) to 1 ulp over the whole stored footprint, and
// the face entries with no west or north neighbour in storage are NaN. A
// sweep for a kernel rect equals Update bitwise on the rows a kernel over
// that rect reads and leaves every other row untouched.
func TestSurfaceReciprocals(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	psa := smoothState(g, b).Psa
	sur := NewSurface(b)
	sur.Update(psa)
	t.Run("kernel rect", func(t *testing.T) { checkSurfaceRows(t, sur, psa) })
	// want NaN means the entry must be NaN.
	check := func(name string, i, j int, got, want float64) {
		t.Helper()
		ok := math.IsNaN(got) && math.IsNaN(want) ||
			got >= math.Nextafter(want, math.Inf(-1)) && got <= math.Nextafter(want, math.Inf(1))
		if !ok {
			t.Fatalf("%s at (%d,%d) = %v, want %v to 1 ulp", name, i, j, got, want)
		}
	}
	w := b.WithHalo()
	for j := w.J0; j < w.J1; j++ {
		for i := w.I0; i < w.I1; i++ {
			P, Pes := sur.P.At(i, j), sur.Pes.At(i, j)
			check("1/P", i, j, sur.rP.At(i, j), 1/P)
			check("1/p_es", i, j, sur.rPes.At(i, j), 1/Pes)
			atU, atUes := math.NaN(), math.NaN()
			if i > w.I0 {
				atU = 1 / (0.5 * (sur.P.At(i-1, j) + P))
				atUes = 1 / (0.5 * (sur.Pes.At(i-1, j) + Pes))
			}
			check("1/P at U", i, j, sur.rPU.At(i, j), atU)
			check("1/p_es at U", i, j, sur.rPesU.At(i, j), atUes)
			atV, atVes := math.NaN(), math.NaN()
			if j > w.J0 {
				atV = 1 / (0.5 * (sur.P.At(i, j-1) + P))
				atVes = 1 / (0.5 * (sur.Pes.At(i, j-1) + Pes))
			}
			check("1/P at V", i, j, sur.rPV.At(i, j), atV)
			check("1/p_es at V", i, j, sur.rPesV.At(i, j), atVes)
		}
	}
}

// checkSurfaceRows sweeps fresh surfaces for kernel rects at the north pole,
// inside, at the south pole, over the whole domain and empty, and compares
// them with full, the result of Update: every plane must equal it bitwise on
// the rows the kernels read — J0 − 1 … J1 (Â's p_es and D(P)'s P on j ± 1,
// L̃'s west faces of row J0 − 1 and north interfaces of row J1) — P and p_es
// also on row J0 − 2, and every other stored value must keep its poison.
func checkSurfaceRows(t *testing.T, full *Surface, psa *field.F2) {
	planes := func(s *Surface) []*field.F2 {
		return []*field.F2{s.P, s.Pes, s.rP, s.rPes, s.rPU, s.rPesU, s.rPV, s.rPesV}
	}
	b := full.B
	w := b.WithHalo()
	const poison = -7.0
	for _, rows := range [][2]int{{0, 2}, {3, 6}, {8, b.Ny}, {0, b.Ny}, {4, 4}} {
		r := b.Owned()
		r.J0, r.J1 = rows[0], rows[1]
		got := NewSurface(b)
		for _, pl := range planes(got) {
			for n := range pl.Data {
				pl.Data[n] = poison
			}
		}
		got.UpdateFor(psa, r)
		for p, pl := range planes(got) {
			ref := planes(full)[p]
			for j := w.J0; j < w.J1; j++ {
				read := !r.Empty() && j >= r.J0-1 && j <= r.J1
				lookBack := !r.Empty() && j == r.J0-2 && p < 2 // P, p_es
				for i := w.I0; i < w.I1; i++ {
					want := poison
					if read || lookBack {
						want = ref.At(i, j)
					}
					if g := pl.At(i, j); math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("rect rows [%d,%d): plane %d at (%d,%d) = %v, want %v", r.J0, r.J1, p, i, j, g, want)
					}
				}
			}
		}
	}
}

func TestSmoothingMatchesReferenceBitwise(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := smoothState(g, b)
	smo := NewSmoother(g, 1.0)
	fast := field.NewF3(b)
	ref := field.NewF3(b)

	smo.P1Field(st.U, fast, b.Owned())
	refP1(smo, st.U, ref, b.Owned())
	if d := field.MaxAbsDiffOwned(fast, ref); d != 0 {
		t.Errorf("P1 differs from reference by %g", d)
	}

	// P2 reads no row past a pole, whose weight is zero, so either mirror
	// there gives its bits.
	for _, shifted := range []bool{false, true} {
		if shifted {
			field.FillPolesYShifted(st.Phi, field.Even, field.CenterY)
		}
		smo.P2(st.Phi, fast, b.Owned())
		refP2(smo, st.Phi, ref, b.Owned())
		for n := range fast.Data {
			if math.Float64bits(fast.Data[n]) != math.Float64bits(ref.Data[n]) {
				t.Fatalf("shifted mirror %v: P2 cell %d is %v, the reference gives %v", shifted, n, fast.Data[n], ref.Data[n])
			}
		}
	}
}

// TestAdvectionScratchReuseBitwise: L̃ reads only scratch it staged in the
// same call, level by level. Every plane — u, v and both σ̇ slots — is
// poisoned with NaN before each case, and each case must equal the
// whole-rect result from fresh scratch bit for bit: one-level rects, rects
// touching k = 0 and k = N_z, an interior rect, and the owned rect swept as
// two k halves through the same scratch.
func TestAdvectionScratchReuseBitwise(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := refState(g, b)
	sur, cres, _ := prepare(g, st)
	whole := NewTendency(b)
	AdvectionScratch(g, st, sur, cres, whole, b.Owned(), nil)

	sc := NewAdvScratch(b)
	poison := func() {
		planes := []*field.F2{sc.uPhys, sc.vPhys}
		for s := range sc.sdotU {
			planes = append(planes, sc.sdotU[s], sc.sdotC[s], sc.sdotV[s])
		}
		for _, p := range planes {
			for i := range p.Data {
				p.Data[i] = math.NaN()
			}
		}
	}
	// same fails t unless got equals whole bitwise on every point of r.
	same := func(name string, got *Tendency, r field.Rect) {
		t.Helper()
		for _, c := range []struct {
			comp      string
			got, want *field.F3
		}{{"DU", got.DU, whole.DU}, {"DV", got.DV, whole.DV}, {"DPhi", got.DPhi, whole.DPhi}} {
			for k := r.K0; k < r.K1; k++ {
				for j := r.J0; j < r.J1; j++ {
					for i := r.I0; i < r.I1; i++ {
						if a, w := c.got.At(i, j, k), c.want.At(i, j, k); math.Float64bits(a) != math.Float64bits(w) {
							t.Fatalf("%s: %s at (%d,%d,%d) = %v, whole rect gives %v", name, c.comp, i, j, k, a, w)
						}
					}
				}
			}
		}
	}

	o := b.Owned()
	level := func(k0, k1 int) field.Rect { r := o; r.K0, r.K1 = k0, k1; return r }
	cases := map[string]field.Rect{
		"owned":           o,
		"top level":       level(0, 1),
		"middle level":    level(2, 3),
		"bottom level":    level(g.Nz-1, g.Nz),
		"touching k = 0":  level(0, 2),
		"touching k = Nz": level(g.Nz-2, g.Nz),
		"interior":        refRects(b)[1],
	}
	for name, r := range cases {
		poison()
		got := NewTendency(b)
		AdvectionScratch(g, st, sur, cres, got, r, sc)
		same(name, got, r)
	}

	poison()
	got := NewTendency(b)
	AdvectionScratch(g, st, sur, cres, got, level(0, g.Nz/2), sc)
	AdvectionScratch(g, st, sur, cres, got, level(g.Nz/2, g.Nz), sc)
	same("two k halves", got, o)
}

// TestLevelTendencyMatchesWholeRect: an update streamed one level at a time
// sees bitwise the tendency a whole-rect evaluation forms. For Â and for L̃,
// over the owned rect and over rects touching k = 0, k = N_z and neither,
// each level is evaluated into a NaN-poisoned two-level LevelTendency stored
// on the rect's footprint, L̃ through NaN-poisoned scratch that only its
// first level stages σ̇ into, and compared with the whole-rect tendency
// before the next level reuses its slot. The points the levels report sum
// to the whole rect's.
func TestLevelTendencyMatchesWholeRect(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := refState(g, b)
	sur, cres, _ := prepare(g, st)
	nan := func(fs ...*field.F3) {
		for _, f := range fs {
			for i := range f.Data {
				f.Data[i] = math.NaN()
			}
		}
	}
	o := b.Owned()
	rects := []field.Rect{o, refRects(b)[1]}
	for _, ks := range [][2]int{{0, 3}, {g.Nz - 3, g.Nz}} {
		r := o
		r.J0, r.K0, r.K1 = 1, ks[0], ks[1]
		rects = append(rects, r)
	}
	for _, kern := range []struct {
		name  string
		whole func(out *Tendency, r field.Rect) int
		level func(out *Tendency, r field.Rect, k int, sc *AdvScratch) int
	}{
		{"adaptation",
			func(out *Tendency, r field.Rect) int { return Adaptation3D(g, st, sur, cres, out, r) },
			func(out *Tendency, r field.Rect, k int, _ *AdvScratch) int {
				return AdaptationLevel(g, st, sur, cres, out, r, k)
			}},
		{"advection",
			func(out *Tendency, r field.Rect) int { return Advection3D(g, st, sur, cres, out, r, nil) },
			func(out *Tendency, r field.Rect, k int, sc *AdvScratch) int {
				return AdvectionLevel(g, st, sur, cres, out, r, k, sc)
			}},
	} {
		for _, r := range rects {
			whole := NewTendency(b)
			want := kern.whole(whole, r)
			foot := b
			foot.J0, foot.J1, foot.Hy = r.J0, r.J1, 0
			lt := NewLevelTendency(foot)
			for k := r.K0; k < r.K0+2; k++ {
				nan(lt.Level(k).Fields()[:3]...)
			}
			sc := NewAdvScratch(b)
			nan(&sc.uPhys.F3, &sc.vPhys.F3)
			for s := range sc.sdotU {
				nan(&sc.sdotU[s].F3, &sc.sdotC[s].F3, &sc.sdotV[s].F3)
			}
			got := 0
			for k := r.K0; k < r.K1; k++ {
				lv := lt.Level(k)
				got += kern.level(lv, r, k, sc)
				for c, pair := range [3][2]*field.F3{{lv.DU, whole.DU}, {lv.DV, whole.DV}, {lv.DPhi, whole.DPhi}} {
					for j := r.J0; j < r.J1; j++ {
						for i := r.I0; i < r.I1; i++ {
							if a, w := pair[0].At(i, j, k), pair[1].At(i, j, k); math.Float64bits(a) != math.Float64bits(w) {
								t.Fatalf("%s over %v: component %d at (%d,%d,%d) = %v level by level, %v whole", kern.name, r, c, i, j, k, a, w)
							}
						}
					}
				}
			}
			if got != want {
				t.Errorf("%s over %v: levels report %d points, the whole rect %d", kern.name, r, got, want)
			}
		}
	}
}
