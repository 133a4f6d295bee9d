package operators

import (
	"math"
	"testing"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
	"cadycore/internal/state"
)

// This file pins the row-slice production kernels against straightforward
// point-accessor reference implementations of the same formulas: the results
// must match BITWISE (the optimization reorders memory access, never
// arithmetic). Only the reference implementations live here, in test code.

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
				out.DU.Set(i, j, k, -pl1-pl2+fstar*v4)

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
					out.DV.Set(i, j, k, -pt1-pt2-fstar*u4)
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

// refP1 and refP2Former are the smoothing kernels with accessors.
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

func refP2Former(s *Smoother, in, out *field.F3, r field.Rect, avail AvailFunc) {
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			lo, hi := avail(j)
			for i := r.I0; i < r.I1; i++ {
				acc := 0.0
				for d := -2; d <= 2; d++ {
					jj := j + d
					if jj < lo || jj >= hi {
						continue
					}
					acc += s.rowC1[d+2]*in.At(i, jj, k) + s.rowC2[d+2]*delta4X(in, i, jj, k)
				}
				out.Set(i, j, k, acc)
			}
		}
	}
}

func TestAdaptationMatchesReferenceBitwise(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := smoothState(g, b)
	sur, cres, _ := prepare(g, st)
	cfg := DefaultAdaptConfig()
	fast := NewTendency(b)
	ref := NewTendency(b)
	Adaptation(g, cfg, st, sur, cres, fast, b.Owned())
	refAdaptation(g, cfg, st, sur, cres, ref, b.Owned())
	for name, pair := range map[string][2]*field.F3{
		"DU": {fast.DU, ref.DU}, "DV": {fast.DV, ref.DV}, "DPhi": {fast.DPhi, ref.DPhi},
	} {
		if d := field.MaxAbsDiffOwned(pair[0], pair[1]); d != 0 {
			t.Errorf("%s differs from reference by %g (must be bitwise)", name, d)
		}
	}
	if d := field.MaxAbsDiffOwned2(fast.DPsa, ref.DPsa); d != 0 {
		t.Errorf("DPsa differs from reference by %g", d)
	}
}

func TestDivPMatchesReferenceBitwise(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	st := smoothState(g, b)
	sur := NewSurface(b)
	sur.Update(st.Psa)
	fast := field.NewF3(b)
	ref := field.NewF3(b)
	DivP(g, st.U, st.V, sur, fast, b.Owned())
	refDivP(g, st.U, st.V, sur, ref, b.Owned())
	if d := field.MaxAbsDiffOwned(fast, ref); d != 0 {
		t.Errorf("DivP differs from reference by %g", d)
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

	window := func(j int) (int, int) { return 3, 8 }
	smo.P2Former(st.Phi, fast, b.Owned(), window)
	refP2Former(smo, st.Phi, ref, b.Owned(), window)
	if d := field.MaxAbsDiffOwned(fast, ref); d != 0 {
		t.Errorf("P2Former differs from reference by %g", d)
	}
}

func TestAdvectionScratchReuseBitwise(t *testing.T) {
	// Reusing scratch (with stale contents from an unrelated call) must not
	// change results.
	g := probeGrid()
	b := serialBlock(g)
	st := smoothState(g, b)
	sur, cres, _ := prepare(g, st)
	fresh := NewTendency(b)
	Advection(g, st, sur, cres, fresh, b.Owned())

	sc := NewAdvScratch(b)
	// Poison the scratch.
	for i := range sc.uPhys.Data {
		sc.uPhys.Data[i] = math.Inf(1)
	}
	reused := NewTendency(b)
	AdvectionScratch(g, st, sur, cres, reused, b.Owned(), sc)
	for name, pair := range map[string][2]*field.F3{
		"DU": {fresh.DU, reused.DU}, "DV": {fresh.DV, reused.DV}, "DPhi": {fresh.DPhi, reused.DPhi},
	} {
		if d := field.MaxAbsDiffOwned(pair[0], pair[1]); d != 0 {
			t.Errorf("advection %s changed with reused scratch: %g", name, d)
		}
	}
}
