// Package state defines the prognostic vector of the dynamical core,
// ξ = (U, V, Φ, p'_sa) (paper eq. 1), on one rank's block, together with the
// linear-combination and boundary-fill helpers the time integration uses.
//
// U, V and Φ are 3-D (longitude × latitude × σ); p'_sa is the 2-D surface
// pressure deviation. Under decompositions with p_z > 1 every rank of a z
// column carries a full replica of p'_sa for its horizontal footprint, which
// all ranks update identically from the shared result of the vertical
// summation collective — the arrangement the original MPI code uses.
package state

import (
	"math"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
)

// State is ξ on one rank's block.
type State struct {
	B   field.Block
	U   *field.F3 // P·u at west faces (λ_{i−1/2}, θ_j)
	V   *field.F3 // P·v at latitude interfaces (λ_i, θ interfaces); row 0 = north pole
	Phi *field.F3 // P·R·(T − T̃)/b at centers
	Psa *field.F2 // p_s − p̃_s at centers

	// ShiftedPoles selects the exact spherical pole mirror (values taken
	// from the antipodal meridian; requires full longitude circles per
	// rank). The default unshifted mirror is kept for comparability with
	// decompositions that split x. See DESIGN.md §2.
	ShiftedPoles bool

	// Carry, when non-nil, is what the owning integrator carries across a
	// step boundary besides ξ. The copy and arithmetic helpers ignore it.
	Carry *Carry
}

// Carry is the comm-avoiding integrator's carried state beyond ξ: step k+1
// reads the Ĉ cached by step k's last iteration (paper §4.2.2) and owes ξ(k)
// the smoothing Algorithm 2 defers (§4.3.2). A checkpoint of ξ plus Carry
// restarts the operator flow bitwise; the baselines carry nothing (nil).
type Carry struct {
	// PWI and DBar are the lagged Ĉ (operators.CRes) on the state's block:
	// valid on the owned region plus PWI's bottom interface k = Nz.
	PWI  *field.F3
	DBar *field.F2
	// PendingSmooth: ξ is a step-boundary state not yet finalized.
	PendingSmooth bool
}

// New allocates a zero state on the block.
func New(b field.Block) *State {
	return &State{
		B:   b,
		U:   field.NewF3(b),
		V:   field.NewF3(b),
		Phi: field.NewF3(b),
		Psa: field.NewF2(b),
	}
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	return &State{B: s.B, U: s.U.Clone(), V: s.V.Clone(), Phi: s.Phi.Clone(),
		Psa: s.Psa.Clone(), ShiftedPoles: s.ShiftedPoles}
}

// CopyFrom sets s ← o.
func (s *State) CopyFrom(o *State) {
	field.Copy(s.U, o.U)
	field.Copy(s.V, o.V)
	field.Copy(s.Phi, o.Phi)
	field.Copy2(s.Psa, o.Psa)
}

// Axpy sets s ← s + c·o componentwise.
func (s *State) Axpy(c float64, o *State) {
	field.Axpy(s.U, c, o.U)
	field.Axpy(s.V, c, o.V)
	field.Axpy(s.Phi, c, o.Phi)
	field.Axpy2(s.Psa, c, o.Psa)
}

// Lin2 sets s ← a·x + b·y componentwise.
func (s *State) Lin2(a float64, x *State, b float64, y *State) {
	field.Lin2(s.U, a, x.U, b, y.U)
	field.Lin2(s.V, a, x.V, b, y.V)
	field.Lin2(s.Phi, a, x.Phi, b, y.Phi)
	field.Lin22(s.Psa, a, x.Psa, b, y.Psa)
}

// Mean2 sets s ← (x + y)/2, the midpoint state of the third internal update.
func (s *State) Mean2(x, y *State) { s.Lin2(0.5, x, 0.5, y) }

// Lin2Rect sets s ← a·x + b·y over rect r only.
func (s *State) Lin2Rect(a float64, x *State, b float64, y *State, r field.Rect) {
	field.Lin2Rect(s.U, a, x.U, b, y.U, r)
	field.Lin2Rect(s.V, a, x.V, b, y.V, r)
	field.Lin2Rect(s.Phi, a, x.Phi, b, y.Phi, r)
	field.Lin2Rect2(s.Psa, a, x.Psa, b, y.Psa, r)
}

// Mean2Rect sets s ← (x + y)/2 over rect r only.
func (s *State) Mean2Rect(x, y *State, r field.Rect) { s.Lin2Rect(0.5, x, 0.5, y, r) }

// F3s returns the 3-D components in canonical order (U, V, Φ) — the order
// halo-exchange messages use.
func (s *State) F3s() []*field.F3 { return []*field.F3{s.U, s.V, s.Phi} }

// F2s returns the 2-D components (p'_sa).
func (s *State) F2s() []*field.F2 { return []*field.F2{s.Psa} }

// FillLocalBounds refreshes every locally computable boundary cell:
// periodic x halos (when the block owns full circles), vertical mirrors and
// pole mirrors. Call after a halo exchange, and again after every local
// update that touched the boundary-adjacent rows.
func (s *State) FillLocalBounds() {
	if s.B.OwnsFullX() && s.B.Hx > 0 {
		s.U.FillXPeriodic()
		s.V.FillXPeriodic()
		s.Phi.FillXPeriodic()
		s.Psa.FillXPeriodic()
	}
	field.FillVerticalZ(s.U)
	field.FillVerticalZ(s.V)
	field.FillVerticalZ(s.Phi)
	if s.ShiftedPoles {
		field.FillPolesYShifted(s.U, field.Odd, field.CenterY)
		field.FillPolesYShifted(s.V, field.Odd, field.FaceY)
		field.FillPolesYShifted(s.Phi, field.Even, field.CenterY)
		field.FillPolesY2Shifted(s.Psa, field.Even)
		return
	}
	field.FillPolesY(s.U, field.Odd, field.CenterY)
	field.FillPolesY(s.V, field.Odd, field.FaceY)
	field.FillPolesY(s.Phi, field.Even, field.CenterY)
	field.FillPolesY2(s.Psa, field.Even)
}

// MaxAbsDiff returns the largest componentwise difference over owned points
// — the metric the decomposition-equivalence tests compare with.
func (s *State) MaxAbsDiff(o *State) float64 {
	d := field.MaxAbsDiffOwned(s.U, o.U)
	if v := field.MaxAbsDiffOwned(s.V, o.V); v > d {
		d = v
	}
	if v := field.MaxAbsDiffOwned(s.Phi, o.Phi); v > d {
		d = v
	}
	if v := field.MaxAbsDiffOwned2(s.Psa, o.Psa); v > d {
		d = v
	}
	return d
}

// AllFinite reports whether every owned value of every component is finite.
func (s *State) AllFinite() bool {
	return field.AllFiniteOwned(s.U) && field.AllFiniteOwned(s.V) &&
		field.AllFiniteOwned(s.Phi) && allFinite2(s.Psa)
}

func allFinite2(f *field.F2) bool {
	r := f.B.Owned()
	for j := r.J0; j < r.J1; j++ {
		for i := r.I0; i < r.I1; i++ {
			v := f.At(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// InitFromPhysical fills the owned region (and nothing else — call
// FillLocalBounds plus a halo exchange afterwards) from physical profiles:
// uFn, vFn give winds (m/s), tFn temperature (K) and psFn surface pressure
// (Pa), each as functions of (λ, θ center/interface as appropriate, σ).
func (s *State) InitFromPhysical(g *grid.Grid,
	uFn, vFn func(lam, theta, sigma float64) float64,
	tFn func(lam, theta, sigma float64) float64,
	psFn func(lam, theta float64) float64,
) {
	b := s.B
	for j := b.J0; j < b.J1; j++ {
		thC := g.ThetaC[j]
		for i := b.I0; i < b.I1; i++ {
			lam := g.Lambda[i]
			ps := psFn(lam, thC)
			s.Psa.Set(i, j, ps-physics.StandardSurfacePressure)
		}
	}
	for k := b.K0; k < b.K1; k++ {
		sig := g.Sigma[k]
		for j := b.J0; j < b.J1; j++ {
			thC := g.ThetaC[j]
			for i := b.I0; i < b.I1; i++ {
				lam := g.Lambda[i]
				lamU := lam - 0.5*g.DLambda // U point longitude
				psU := 0.5 * (psFn(lamU, thC) + psFn(lamU, thC))
				pU := physics.PFromPs(psU)
				s.U.Set(i, j, k, pU*uFn(lamU, thC, sig))

				ps := psFn(lam, thC)
				p := physics.PFromPs(ps)
				tTil := physics.StandardTemperature(sig)
				s.Phi.Set(i, j, k, physics.PhiFromTemperature(tFn(lam, thC, sig), p, tTil))
			}
		}
		// V rows: interfaces owned by this block (skip the poles).
		for j := b.J0; j < b.J1; j++ {
			if j == 0 {
				continue // north pole: V ≡ 0
			}
			thI := g.ThetaI[j]
			for i := b.I0; i < b.I1; i++ {
				lam := g.Lambda[i]
				psV := psFn(lam, thI)
				pV := physics.PFromPs(psV)
				s.V.Set(i, j, k, pV*vFn(lam, thI, sig))
			}
		}
	}
}
